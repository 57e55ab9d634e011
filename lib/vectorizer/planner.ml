(** The vectorization planner: decides each innermost loop's (VF, IF) —
    the requested plan first, baseline cost model otherwise — clamps the
    decision to what legality allows, and applies the transform.

    It runs two ways over one decision rule ({!request_of_pragma} and
    {!decide}).  {!run_modul} honours the pragmas lowering carried onto
    the loops, the way Clang/LLVM honour
    [#pragma clang loop vectorize_width(..) interleave_count(..)]: the RL
    agent injects pragmas into the source and this pass obeys them; it is
    the reference the pipeline's prepared path is checked against.  The
    prepared path analyzes a pragma-free module once ({!prepare_modul}):
    legality, and the transform's plan-independent analysis of each legal
    loop.  It decides from requests the caller supplies per loop without
    transforming ({!report_prepared}), then transforms a copy
    ({!apply_prepared}), which only widens — so one analyzed module
    serves every plan of a sweep. *)

type decision = {
  d_loop_id : int;
  d_requested : Transform.plan option;  (** from pragma, if any *)
  d_applied : Transform.plan;
  d_legal : bool;
  d_reasons : string list;
}

type report = decision list

(** The plan a loop pragma requests: [vectorize(disable)] asks for scalar
    code; a width or a count asks for itself, the missing half 1; a
    pragma with neither, or none, asks nothing (the cost model decides). *)
let request_of_pragma (pragma : Minic.Ast.loop_pragma option) :
    Transform.plan option =
  match pragma with
  | Some { Minic.Ast.vectorize_enable = Some false; _ } ->
      Some Transform.no_vectorize
  | None | Some { Minic.Ast.vectorize_width = None; interleave_count = None; _ }
    ->
      None
  | Some { Minic.Ast.vectorize_width = vw; interleave_count = ic; _ } ->
      Some
        { Transform.vf = Option.value vw ~default:1;
          if_ = Option.value ic ~default:1 }

(** Decide one analyzed loop: the [requested] plan, or the baseline cost
    model's choice when nothing is requested, clamped by legality. *)
let decide (leg : Legality.t) (requested : Transform.plan option) :
    decision =
  let p = match requested with Some p -> p | None -> Costmodel.choose leg in
  let vf, if_ = Legality.clamp leg ~vf:p.Transform.vf ~if_:p.Transform.if_ in
  let info = leg.Legality.info in
  {
    d_loop_id = info.Analysis.Loopinfo.li_loop.Ir.l_id;
    d_requested = requested;
    d_applied = { Transform.vf; if_ };
    d_legal = leg.Legality.can_vectorize;
    d_reasons = info.Analysis.Loopinfo.li_reasons;
  }

(** Decide and transform every innermost loop of a function. *)
let run_func (fn : Ir.func) : report =
  List.map
    (fun info ->
      let d =
        decide (Legality.of_info info)
          (request_of_pragma info.Analysis.Loopinfo.li_loop.Ir.l_pragma)
      in
      ignore (Transform.vectorize_in_func fn info d.d_applied);
      d)
    (Analysis.Loopinfo.innermost_infos fn)

(** Run the planner over a whole module. *)
let run_modul (m : Ir.modul) : report = List.concat_map run_func m.Ir.m_funcs

(* ------------------------------------------------------------------ *)
(* Shared-artifact planning: analyze once, apply per plan               *)
(* ------------------------------------------------------------------ *)

(** One innermost loop's worth of per-module analysis, reusable across
    every [Ir.copy_modul] copy of the module it was computed on: its
    legality verdict, which holds the loop info (accesses, reductions,
    dependences), and, for a legal loop, the transform's plan-independent
    analysis ({!Transform.prepare}), so a plan only widens.
    [Transform.vectorize_in_func] locates the loop in the target copy by
    id and substitutes the copy's own node, so a [prep] computed on the
    pristine module drives the transform on any structurally-identical
    copy. *)
type prep = {
  pr_fn_name : string;
  pr_leg : Legality.t;
  pr_analysis : Transform.prepared option;  (** [None] for illegal loops *)
}

(** Analyze every innermost loop of a module once, in [run_modul] order
    (function order, then loop order within the function). *)
let prepare_modul (m : Ir.modul) : prep list =
  List.concat_map
    (fun fn ->
      List.map
        (fun info ->
          let leg = Legality.of_info info in
          { pr_fn_name = fn.Ir.fn_name; pr_leg = leg;
            pr_analysis =
              (if leg.Legality.can_vectorize then Some (Transform.prepare info)
               else None) })
        (Analysis.Loopinfo.innermost_infos fn))
    m.Ir.m_funcs

(** Decide every prepared loop without transforming anything.
    [request l] is the plan requested for loop [l] — what its pragma
    would ask under {!run_modul} — and [None] leaves the loop to the
    baseline cost model. *)
let report_prepared ~(request : Ir.loop -> Transform.plan option)
    (preps : prep list) : report =
  List.map
    (fun pr ->
      let info = pr.pr_leg.Legality.info in
      decide pr.pr_leg (request info.Analysis.Loopinfo.li_loop))
    preps

(** Transform [m], a structural copy of the module [preps] was computed
    on, as [report] ({!report_prepared} over the same [preps]) decided.
    The result is, register for register, the module that lowering a
    pragma-annotated AST requesting the same plans and running
    {!run_modul} on it produces. *)
let apply_prepared (m : Ir.modul) (preps : prep list) (report : report) :
    unit =
  List.iter2
    (fun pr d ->
      match
        List.find_opt (fun f -> f.Ir.fn_name = pr.pr_fn_name) m.Ir.m_funcs
      with
      | Some fn ->
          ignore
            (Transform.vectorize_in_func ?analysis:pr.pr_analysis fn
               pr.pr_leg.Legality.info d.d_applied)
      | None -> invalid_arg "apply_prepared: module does not match preps")
    preps report

(** One plan requested of every prepared loop: {!report_prepared} then
    {!apply_prepared}. *)
let run_prepared ~(plan : Transform.plan option) (m : Ir.modul)
    (preps : prep list) : report =
  let report = report_prepared ~request:(fun _ -> plan) preps in
  apply_prepared m preps report;
  report
