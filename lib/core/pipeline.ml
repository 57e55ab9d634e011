(** The compile-and-measure pipeline ("clang/LLVM + the testbed" of
    Figure 3): parse, check, lower, optionally run Polly, run the loop
    vectorizer (pragmas first, baseline cost model otherwise), clean up
    with LICM, then price compile time and simulate execution time on the
    target machine.

    The front end (parse + sema) runs at most once per distinct program:
    all entry points pull the checked AST from {!Frontend} and apply
    pragma decisions with [Injector.inject_ast] directly on that AST, so a
    35-action reward sweep pays for parsing exactly once instead of
    round-tripping pretty-printed text per action.  Back-end phases are
    timed under {!Stats}. *)

type options = {
  target : Machine.Target.t;
  polly : bool;
  compile_model : Machine.Compile.t;
  faults : Faults.spec;
      (** fault injection and timing noise; [Faults.none] = off *)
  verify : bool;
      (** translation validation: after measuring a point, interpret the
          transformed module against the scalar reference over a
          content-derived input set ({!Verify.Tv}); a refutation raises
          {!Verify.Tv.Miscompile}, which the reward oracle converts to the
          [Miscompiled] quarantine kind *)
}

let default_options =
  { target = Machine.Target.skylake_avx2; polly = false;
    compile_model = Machine.Compile.default; faults = Faults.none;
    verify = false }

(** [true] when [NEUROVEC_VERIFY] asks for translation validation. *)
let verify_of_env () : bool =
  match Sys.getenv_opt "NEUROVEC_VERIFY" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(** Stable cache key for an options value (used by the reward cache).
    The fault descriptor is empty when injection is off and the verify
    suffix only appears when validation is on, so existing runs keep
    their original keys. *)
let options_key (o : options) : string =
  Printf.sprintf "%s|polly=%b|cm=%g+%g%s%s" o.target.Machine.Target.name
    o.polly o.compile_model.Machine.Compile.base_seconds
    o.compile_model.Machine.Compile.per_instr_seconds
    (Faults.descriptor o.faults)
    (if o.verify then "|verify" else "")

type result = {
  modul : Ir.modul;
  decisions : Vectorizer.Planner.report;
  compile_seconds : float;
  exec_seconds : float;
  exec_cycles : float;
}

exception Compile_error = Frontend.Compile_error

let find_kernel (m : Ir.modul) (name : string) : Ir.func =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> raise (Compile_error (Printf.sprintf "kernel %s not found" name))

(* The seeded fault preamble shared by every evaluation entry point, run
   before any real work.  Order matters and is part of the determinism
   contract: persistent discrete faults first (a point that cannot compile
   can never be rescued by retrying), then the transient class (keyed by
   the attempt index, so the supervisor's retry loop can converge), then
   stalls (the cooperative wait only the watchdog ends — checked last so a
   point that deterministically fails does so promptly instead of hanging
   first). *)
let inject_faults ~(faults : Faults.spec) ~(name : string) ~(fkey : string)
    ~(attempt : int) : unit =
  (match Faults.pick faults ~key:fkey with
  | Some Faults.Compile_fault ->
      raise (Compile_error (name ^ ": injected fault: compile failure"))
  | Some Faults.Trap_fault ->
      raise (Ir_interp.Trap (name ^ ": injected fault: runtime trap"))
  | Some Faults.Fuel_fault ->
      raise
        (Faults.Fuel_exhausted
           (name ^ ": injected fault: interpreter fuel exhausted"))
  | None -> ());
  if Faults.transient_hit faults ~key:fkey ~attempt then
    raise
      (Faults.Transient
         (Printf.sprintf "%s: injected fault: transient testbed failure \
                          (attempt %d)" name attempt));
  if Faults.stall_hit faults ~key:fkey then Supervisor.stall_point ~name

(* ------------------------------------------------------------------ *)
(* Translation validation                                               *)
(* ------------------------------------------------------------------ *)

(* Verdicts are cached content-addressed next to the reward cache: the key
   is (content hash, polly, kernel, applied plans, options), so the many
   requested actions that clamp to one applied plan share one verdict, and
   a warm sweep pays nothing for [--verify].  Cached values are the
   rendered counterexample ([None] = equivalent); verdicts are pure
   functions of the key (the input set derives from it — no wall clock,
   no shared RNG), so first-commit-wins races are invisible and a
   [--jobs N] sweep caches exactly the bits a [--jobs 1] sweep caches. *)

let verdicts : string option Memo.t = Memo.create ~name:"verdict" ~cap:16384

(** The per-loop applied plans of a planner report, as the stable
    signature string shared by the verdict cache and the point memo. *)
let decisions_sig (report : Vectorizer.Planner.report) : string =
  String.concat ";"
    (List.map
       (fun d ->
         Printf.sprintf "%d,%d"
           d.Vectorizer.Planner.d_applied.Vectorizer.Transform.vf
           d.Vectorizer.Planner.d_applied.Vectorizer.Transform.if_)
       report)

let applied_sig (plans : Vectorizer.Transform.plan list) : string =
  String.concat ";"
    (List.map
       (fun pl ->
         Printf.sprintf "%d,%d" pl.Vectorizer.Transform.vf
           pl.Vectorizer.Transform.if_)
       plans)

(* Validate one measured point when [options.verify] is on: raise
   {!Verify.Tv.Miscompile} iff the plan's verdict is a refutation.  Runs
   after measurement, so timings and memos are untouched whether or not
   validation passes.  [modul] is lazy so a verdict-cache hit never
   materializes the transformed module (the memoized eval path skips
   copy + transform entirely on warm points).  The [miscompile] fault
   knob keys its sabotage by the same content key, so a broken-transform
   drill produces the same refutation for every action that clamps to
   the sabotaged plan, at any [--jobs]. *)
let verify_point ~(options : options) (p : Dataset.Program.t)
    (a : Frontend.artifact) ~(psig : string) ~(modul : Ir.modul Lazy.t) :
    unit =
  if options.verify then begin
    let kernel = p.Dataset.Program.p_kernel in
    let ppkey =
      Printf.sprintf "%s|polly=%b|%s|%s" a.Frontend.a_hash options.polly
        kernel psig
    in
    let vkey = ppkey ^ "|" ^ options_key options in
    let outcome =
      Memo.find_or_add verdicts vkey (fun () ->
          let scalar = Frontend.scalar_ref_of p a in
          match
            Verify.Tv.verify
              ~sabotage:(Faults.miscompile_hit options.faults ~key:ppkey)
              ~key:ppkey ~scalar
              ~scalar_key:(a.Frontend.a_hash ^ "|" ^ kernel)
              ~kernel (Lazy.force modul)
          with
          | Verify.Tv.Equivalent -> None
          | Verify.Tv.Refuted cx ->
              Stats.record_verify_cx ();
              Some (Verify.Tv.render cx))
    in
    match outcome with
    | None -> ()
    | Some cx ->
        Stats.record_verify_refute ();
        raise (Verify.Tv.Miscompile cx)
  end

(** Back end: lower a checked AST and simulate it.  [name], [kernel] and
    [bindings] come from the program the AST was derived from.

    [fault_key] identifies the (program, decision) point for deterministic
    fault injection; entry points derive it from the content hash and the
    pragma decision so the same measurement point always faults the same
    way (defaults to [name] for direct callers).  [sample] numbers the
    median-of-k timing resamples of one point: noise is a pure function of
    (fault seed, fault_key, sample), so results never depend on what other
    evaluations — or other domains — measured in between.  [attempt]
    numbers the supervisor's retries of the whole point: transient faults
    are a pure function of (fault seed, fault_key, attempt), so a retry
    can succeed deterministically. *)
let run_ast ?(options = default_options) ?fault_key ?(sample = 0)
    ?(attempt = 0) ?(timing_memo = true)
    ~(name : string)
    ~(kernel : string) ~(bindings : (string * int) list)
    (prog : Minic.Ast.program) : result =
  let fkey = Option.value fault_key ~default:name in
  inject_faults ~faults:options.faults ~name ~fkey ~attempt;
  let m =
    Stats.time Stats.Lower (fun () ->
        try Ir_lower.lower_program ~bindings prog
        with Ir_lower.Error msg ->
          raise (Compile_error (Printf.sprintf "%s: %s" name msg)))
  in
  if options.polly then
    Stats.time Stats.Polly (fun () -> ignore (Polly.Driver.optimize m));
  (* LICM + scalar promotion first (as -licm before the vectorizer in
     LLVM): promotes memory reductions to register reductions the
     vectorizer can widen, and exposes invariant address arithmetic *)
  Stats.time Stats.Scalar_opt (fun () ->
      ignore (Vectorizer.Licm.run_modul m);
      ignore (Vectorizer.Cse.run_modul m);
      ignore (Vectorizer.Licm.run_modul m));
  let decisions =
    Stats.time Stats.Vectorize (fun () -> Vectorizer.Planner.run_modul m)
  in
  Stats.time Stats.Scalar_opt (fun () -> ignore (Vectorizer.Licm.run_modul m));
  let compile_seconds =
    Machine.Compile.seconds ~model:options.compile_model m
    *. Faults.timeout_multiplier options.faults ~key:fkey
  in
  let kernel_fn = find_kernel m kernel in
  let exec_cycles =
    Stats.time Stats.Timing (fun () ->
        Machine.Timing.cycles ~memo:timing_memo options.target m kernel_fn)
    *. Faults.noise_factor options.faults ~key:fkey ~sample
  in
  let exec_seconds =
    exec_cycles /. (options.target.Machine.Target.ghz *. 1e9)
  in
  Stats.pipeline_run ();
  { modul = m; decisions; compile_seconds; exec_seconds; exec_cycles }

let run_artifact ?(options = default_options) ?fault_key ?sample ?attempt
    ?timing_memo (p : Dataset.Program.t) (prog : Minic.Ast.program) : result =
  let r =
    run_ast ~options ?fault_key ?sample ?attempt ?timing_memo
      ~name:p.Dataset.Program.p_name
      ~kernel:p.Dataset.Program.p_kernel
      ~bindings:p.Dataset.Program.p_bindings prog
  in
  verify_point ~options p (Frontend.checked p)
    ~psig:(decisions_sig r.decisions) ~modul:(lazy r.modul);
  r

(** Compile and simulate one program, honouring pragmas in its source. *)
let run ?(options = default_options) ?sample (p : Dataset.Program.t) : result =
  let a = Frontend.checked p in
  run_artifact ~options ?sample ~fault_key:(a.Frontend.a_hash ^ "|asis") p
    a.Frontend.a_ast

(** Compile with a specific (vf, if) pragma on every innermost loop.
    [timing_memo:false] makes the run reproduce the pre-memo timing-model
    cost (same bits, more work) — the legacy reference for the sweep
    benchmark. *)
let run_with_pragma ?(options = default_options) ?sample ?attempt ?timing_memo
    (p : Dataset.Program.t) ~vf ~if_ : result =
  let a = Frontend.checked p in
  let decisions =
    List.init a.Frontend.a_loops (fun i -> (i, Injector.pragma_of ~vf ~if_))
  in
  run_artifact ~options ?sample ?attempt ?timing_memo
    ~fault_key:(Printf.sprintf "%s|vf=%d,if=%d" a.Frontend.a_hash vf if_)
    p
    (Injector.inject_ast ~clear_others:true a.Frontend.a_ast ~decisions)

(** Compile with the baseline cost model only (existing pragmas removed). *)
let run_baseline ?(options = default_options) ?sample ?attempt ?timing_memo
    (p : Dataset.Program.t)
    : result =
  let a = Frontend.checked p in
  run_artifact ~options ?sample ?attempt ?timing_memo
    ~fault_key:(a.Frontend.a_hash ^ "|baseline") p
    (Injector.inject_ast ~clear_others:true a.Frontend.a_ast ~decisions:[])

(* ------------------------------------------------------------------ *)
(* Shared-artifact fast path                                            *)
(* ------------------------------------------------------------------ *)

(* Evaluation points collapse: legality clamps each requested (vf, if) to
   what the loop admits, so many of the 35 actions in a sweep share one
   applied plan per loop — and therefore one transformed module, one
   compile-time estimate, one cycle count.  The memo keys a point by
   (prevec content, options, kernel, applied plan per loop): computing the
   key costs one clamp per loop, and a hit skips copy + transform + LICM +
   compile modelling + timing entirely.  Cached values are raw
   pre-fault-multiplier floats; noise and timeout factors are pure
   functions of (fault key, sample) applied outside the memo, so cached
   points are bit-identical to freshly measured ones at every sample. *)

(* point key -> (raw compile seconds, raw exec cycles) *)
let points : (float * float) Memo.t = Memo.create ~name:"point" ~cap:16384

(* the plan each loop will actually receive — exactly the clamp
   [Vectorizer.Planner.run_prepared] performs before transforming *)
let applied_plans ~(plan : (int * int) option)
    (preps : Vectorizer.Planner.prep list) : Vectorizer.Transform.plan list =
  List.map
    (fun pr ->
      let leg = pr.Vectorizer.Planner.pr_leg in
      let requested =
        match plan with
        | Some (vf, if_) -> { Vectorizer.Transform.vf; if_ }
        | None ->
            Vectorizer.Costmodel.choose
              ~table:Vectorizer.Costmodel.default_table leg
      in
      let vf, if_ =
        Vectorizer.Legality.clamp leg ~vf:requested.Vectorizer.Transform.vf
          ~if_:requested.Vectorizer.Transform.if_
      in
      { Vectorizer.Transform.vf; if_ })
    preps

(** (exec_seconds, compile_seconds) of one (program, action) point on the
    shared pre-vectorization artifact — the oracle's hot path.  The program
    is lowered and LICM/CSE'd at most once per content
    ({!Frontend.prevec}); a point-memo miss takes an {!Ir.copy_modul} of
    that pristine module and drives the planner with an explicit plan:
    [Some (vf, if_)] applies the pair to every innermost loop exactly as
    {!run_with_pragma} does through pragmas, [None] is the baseline cost
    model's own choice exactly as {!run_baseline}.  Bit-identical to those
    entry points by construction: the mid-end passes are pragma-oblivious
    and deterministic, the copy preserves register numbering, and fault
    keys keep their [hash|vf=..,if=..] / [hash|baseline] form, so seeded
    fault schedules and timing noise are unchanged. *)
let eval_planned ?(options = default_options) ?fault_key ?(sample = 0)
    ?(attempt = 0) (p : Dataset.Program.t) ~(plan : (int * int) option) :
    float * float =
  let a = Frontend.checked p in
  let fkey =
    match fault_key with
    | Some k -> k
    | None -> (
        match plan with
        | Some (vf, if_) ->
            Printf.sprintf "%s|vf=%d,if=%d" a.Frontend.a_hash vf if_
        | None -> a.Frontend.a_hash ^ "|baseline")
  in
  let name = p.Dataset.Program.p_name in
  inject_faults ~faults:options.faults ~name ~fkey ~attempt;
  let pv = Frontend.prevec_of ~polly:options.polly p a in
  let plans = applied_plans ~plan pv.Frontend.pv_preps in
  let psig = applied_sig plans in
  let key =
    Printf.sprintf "%s|%s|%s|%s" pv.Frontend.pv_hash (options_key options)
      p.Dataset.Program.p_kernel psig
  in
  let compile_raw, cycles_raw =
    Memo.find_or_add points key (fun () ->
        let m = Ir.copy_modul pv.Frontend.pv_modul in
        let plan_t =
          Option.map (fun (vf, if_) -> { Vectorizer.Transform.vf; if_ }) plan
        in
        ignore
          (Stats.time Stats.Vectorize (fun () ->
               Vectorizer.Planner.run_prepared ~plan:plan_t m
                 pv.Frontend.pv_preps));
        Stats.time Stats.Scalar_opt (fun () ->
            ignore (Vectorizer.Licm.run_modul m));
        let compile_raw =
          Machine.Compile.seconds ~model:options.compile_model m
        in
        let kernel_fn = find_kernel m p.Dataset.Program.p_kernel in
        let cycles_raw =
          Stats.time Stats.Timing (fun () ->
              Machine.Timing.cycles options.target m kernel_fn)
        in
        (compile_raw, cycles_raw))
  in
  let compile_seconds =
    compile_raw *. Faults.timeout_multiplier options.faults ~key:fkey
  in
  let exec_cycles =
    cycles_raw *. Faults.noise_factor options.faults ~key:fkey ~sample
  in
  Stats.pipeline_run ();
  (* validate after measuring; a verdict-cache hit never re-materializes
     the transformed module, so warm verified sweeps stay memo-fast *)
  verify_point ~options p a ~psig
    ~modul:
      (lazy
        (let m = Ir.copy_modul pv.Frontend.pv_modul in
         let plan_t =
           Option.map
             (fun (vf, if_) -> { Vectorizer.Transform.vf; if_ })
             plan
         in
         ignore
           (Vectorizer.Planner.run_prepared ~plan:plan_t m
              pv.Frontend.pv_preps);
         ignore (Vectorizer.Licm.run_modul m);
         m));
  (exec_cycles /. (options.target.Machine.Target.ghz *. 1e9), compile_seconds)

(** Compile with per-loop pragma decisions.  [attempt] numbers the
    supervisor's retries of the whole point, as in {!run_with_pragma} —
    the serve daemon threads it so transient faults on the decision path
    can recover deterministically. *)
let run_with_decisions ?(options = default_options) ?sample ?attempt
    (p : Dataset.Program.t)
    ~(decisions : (int * Minic.Ast.loop_pragma) list) : result =
  let a = Frontend.checked p in
  let fault_key =
    a.Frontend.a_hash ^ "|d:"
    ^ String.concat ";"
        (List.map
           (fun (ord, pr) ->
             Printf.sprintf "%d=%d,%d" ord
               (Option.value pr.Minic.Ast.vectorize_width ~default:0)
               (Option.value pr.Minic.Ast.interleave_count ~default:0))
           decisions)
  in
  run_artifact ~options ?sample ?attempt ~fault_key p
    (Injector.inject_ast ~clear_others:true a.Frontend.a_ast ~decisions)
