(** The loop vectorization transform: widening + interleaving.

    Given a legal innermost counted loop and a plan [(VF, IF)], produces

    {v setup        (reduction accumulators, live-out pre-seeds)
       main loop     (step = VF*IF*step, widened + unrolled body)
       epilogue      (horizontal reductions, live-out extraction)
       remainder     (the original scalar loop, continuing from where the
                      main loop stopped) v}

    Design notes:
    - Registers that feed memory indices stay scalar (one clone per unroll
      copy, evaluated at the copy's lane-0 iteration); registers that carry
      data are widened to [VF] lanes. A register may need both.
    - [If] nodes are if-converted: the condition becomes a lane mask,
      branch loads/stores are masked, and values defined under the branch
      merge through [Select]. Scalar ([VF = 1]) interleaving reuses the
      same path — the interpreter honours masks on scalar accesses.
    - Reductions get one accumulator per unroll copy, seeded with the
      operation's identity, combined horizontally in the epilogue.
    - Every register the original body defines is restored in the epilogue
      to its "last processed iteration" value (lane [VF-1] of the last
      copy), so code after the loop — and the remainder loop itself —
      observes exactly the state scalar execution would have produced.

    The work splits in two.  {!analyze} derives what does not depend on
    the plan: which registers the body defines, which of them are needed
    in scalar or vector form, the reductions, each access's stride and the
    registers each [If] merges.  {!vectorize} widens the body for one
    plan.  The planner analyzes each legal innermost loop once per module
    ({!prepare}) and hands that analysis to every plan; a caller without
    one gets it computed inline.  Widening maps each original register to
    its clones in the current unroll copy through two arrays indexed by
    register, reset per copy. *)

module IntSet = Set.Make (Int)

type plan = { vf : int; if_ : int }

let no_vectorize = { vf = 1; if_ = 1 }

(* ------------------------------------------------------------------ *)
(* Flattening the (legal) body                                          *)
(* ------------------------------------------------------------------ *)

type flat =
  | FInstr of Ir.instr
  | FIf of Ir.code * Ir.instr list * Ir.instr list

let rec flatten (nodes : Ir.node list) : flat list =
  List.concat_map
    (fun n ->
      match n with
      | Ir.Block is -> List.map (fun i -> FInstr i) is
      | Ir.If { cond; then_; else_ } ->
          [ FIf (cond, block_instrs then_, block_instrs else_) ]
      | Ir.Loop _ | Ir.WhileLoop _ | Ir.Return _ | Ir.BreakN | Ir.ContinueN ->
          invalid_arg "flatten: body not legal for vectorization")
    nodes

and block_instrs nodes =
  List.concat_map
    (function
      | Ir.Block is -> is
      | _ -> invalid_arg "flatten: nested control under If")
    nodes

(** Original instructions in processing order (cond, then, else for Ifs). *)
let flat_instrs (fl : flat list) : Ir.instr list =
  List.concat_map
    (function
      | FInstr i -> [ i ]
      | FIf ((ci, _), t, e) -> ci @ t @ e)
    fl

(* ------------------------------------------------------------------ *)
(* Index / data classification                                          *)
(* ------------------------------------------------------------------ *)

let value_regs (v : Ir.value) = match v with Ir.Reg r -> [ r ] | _ -> []

(** Operand registers of an rvalue, split by context:
    (index-context, data-context). *)
let rvalue_operand_regs (rv : Ir.rvalue) : Ir.reg list * Ir.reg list =
  match rv with
  | Ir.IBin (_, _, a, b) | Ir.FBin (_, _, a, b) | Ir.ICmp (_, _, a, b)
  | Ir.FCmp (_, _, a, b) ->
      ([], value_regs a @ value_regs b)
  | Ir.Select (_, c, a, b) -> ([], value_regs c @ value_regs a @ value_regs b)
  | Ir.Cast (_, _, _, v) | Ir.Splat (_, v) | Ir.Extract (_, v, _)
  | Ir.Reduce (_, _, v) | Ir.Mov (_, v) | Ir.Stride (_, v, _) ->
      ([], value_regs v)
  | Ir.Load (_, m) ->
      ( value_regs m.Ir.index,
        match m.Ir.mask with Some v -> value_regs v | None -> [] )

(** Which loop-defined registers are needed in scalar (index) form and which
    in vector (data) form. If-condition values count as data. *)
let classify (fl : flat list) ~(defined : IntSet.t) ~(reductions : IntSet.t) :
    IntSet.t * IntSet.t =
  let instrs = flat_instrs fl in
  let index_set = ref IntSet.empty and data_set = ref reductions in
  let add_def set r = if IntSet.mem r defined then set := IntSet.add r !set in
  (* Seeds: only *root* uses classify a register. Memory indices are the
     index roots; stored values, masks and call arguments are data roots.
     Operands of ordinary defs inherit the classification of their user
     during propagation below — seeding them directly would mark every
     register touching arithmetic as data. *)
  List.iter
    (fun i ->
      match i with
      | Ir.Def (_, Ir.Load (_, m)) -> (
          List.iter (add_def index_set) (value_regs m.Ir.index);
          match m.Ir.mask with
          | Some mv -> List.iter (add_def data_set) (value_regs mv)
          | None -> ())
      | Ir.Def _ -> ()
      | Ir.Store (_, m, v) -> (
          List.iter (add_def index_set) (value_regs m.Ir.index);
          List.iter (add_def data_set) (value_regs v);
          match m.Ir.mask with
          | Some mv -> List.iter (add_def data_set) (value_regs mv)
          | None -> ())
      | Ir.CallI (_, _, args) ->
          List.iter (fun a -> List.iter (add_def data_set) (value_regs a)) args)
    instrs;
  (* If conditions feed masks: data *)
  List.iter
    (function
      | FIf ((_, cv), _, _) -> List.iter (add_def data_set) (value_regs cv)
      | FInstr _ -> ())
    fl;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        match i with
        | Ir.Def (r, rv) ->
            let idx_ops, data_ops = rvalue_operand_regs rv in
            let ops = idx_ops @ data_ops in
            let propagate set =
              List.iter
                (fun o ->
                  if IntSet.mem o defined && not (IntSet.mem o !set) then begin
                    set := IntSet.add o !set;
                    changed := true
                  end)
                ops
            in
            if IntSet.mem r !index_set then propagate index_set;
            if IntSet.mem r !data_set then propagate data_set
        | _ -> ())
      instrs
  done;
  (!index_set, !data_set)

(* ------------------------------------------------------------------ *)
(* Access strides, precomputed per load/store occurrence                *)
(* ------------------------------------------------------------------ *)

(** Per-iteration element stride of each memory access, in processing
    order. Raises if any access is non-affine (legality prevents that). *)
let access_strides (l : Ir.loop) (fl : flat list) : int array =
  let body_nodes = [ Ir.Block (flat_instrs fl) ] in
  let env = Analysis.Scev.make_env ~induction_vars:[ l.Ir.l_var ] body_nodes in
  let strides = ref [] in
  let record (m : Ir.mem_ref) =
    let sv = Analysis.Scev.eval_value env m.Ir.index in
    match sv with
    | Analysis.Scev.Unknown -> invalid_arg "access_strides: non-affine access"
    | Analysis.Scev.Affine _ ->
        strides := (Analysis.Scev.coeff_of l.Ir.l_var sv * l.Ir.l_step) :: !strides
  in
  List.iter
    (fun i ->
      (match i with
      | Ir.Def (_, Ir.Load (_, m)) -> record m
      | Ir.Store (_, m, _) -> record m
      | _ -> ());
      Analysis.Scev.step env i)
    (flat_instrs fl);
  Array.of_list (List.rev !strides)

(* ------------------------------------------------------------------ *)
(* The plan-independent analysis                                        *)
(* ------------------------------------------------------------------ *)

let defined_bit = 1
let index_bit = 2  (* needed in scalar form: feeds a memory index *)
let data_bit = 4  (* needed in vector form *)
let reduction_bit = 8

(** What widening needs of one loop, whatever the plan.  A prepared
    module keeps one per legal innermost loop for as long as the module
    lives, so it holds flags and strides, not sets or the body. *)
type analysis = {
  an_lo : int;  (** lowest register the body defines *)
  an_regs : Bytes.t;
      (** the [*_bit] flags of register [an_lo + k] at [k]; a register
          outside the range is not defined in the body *)
  an_strides : int array;  (** per memory access, in processing order *)
  an_merges : int array array;
      (** per [If] of the body, in order: the registers its branches
          define that get a vector clone, ascending — the registers the
          if-conversion merges *)
}

let reg_flags (an : analysis) (r : Ir.reg) : int =
  let k = r - an.an_lo in
  if k < 0 || k >= Bytes.length an.an_regs then 0
  else Char.code (Bytes.get an.an_regs k)

(* a defined register gets a vector clone when data needs it, and also
   when no index does (a dead def) *)
let vector_form (flags : int) : bool =
  flags land data_bit <> 0 || flags land index_bit = 0

(** Analyze a legal loop for widening.  Raises as {!vectorize} would on
    a body it cannot widen. *)
let analyze (info : Analysis.Loopinfo.t) : analysis =
  let l = info.Analysis.Loopinfo.li_loop in
  let fl = flatten l.Ir.l_body in
  let defined =
    List.fold_left
      (fun s i -> match i with Ir.Def (r, _) -> IntSet.add r s | _ -> s)
      IntSet.empty (flat_instrs fl)
  in
  let red_set =
    List.fold_left
      (fun s r -> IntSet.add r.Analysis.Reduction.red_reg s)
      IntSet.empty info.Analysis.Loopinfo.li_reductions
  in
  let index_set, data_set = classify fl ~defined ~reductions:red_set in
  let strides = access_strides l fl in
  let lo, hi =
    if IntSet.is_empty defined then (0, -1)
    else (IntSet.min_elt defined, IntSet.max_elt defined)
  in
  let regs = Bytes.make (hi - lo + 1) '\000' in
  IntSet.iter
    (fun r ->
      let bit set b = if IntSet.mem r set then b else 0 in
      Bytes.set regs (r - lo)
        (Char.chr
           (defined_bit lor bit index_set index_bit lor bit data_set data_bit
           lor bit red_set reduction_bit)))
    defined;
  let an =
    { an_lo = lo; an_regs = regs; an_strides = strides; an_merges = [||] }
  in
  let merges =
    List.filter_map
      (function
        | FIf (_, t, e) ->
            Some
              (List.filter_map
                 (function
                   | Ir.Def (r, _) when vector_form (reg_flags an r) -> Some r
                   | _ -> None)
                 (t @ e)
              |> List.sort_uniq compare |> Array.of_list)
        | FInstr _ -> None)
      fl
  in
  { an with an_merges = Array.of_list merges }

(** A loop's analysis computed ahead of widening: the analysis, or what
    {!analyze} raised, which {!vectorize} re-raises where analyzing
    inline would have. *)
type prepared = (analysis, exn) result

let prepare (info : Analysis.Loopinfo.t) : prepared =
  match analyze info with an -> Ok an | exception e -> Error e

(* ------------------------------------------------------------------ *)
(* Widening context                                                     *)
(* ------------------------------------------------------------------ *)

type wctx = {
  fn : Ir.func;
  wide : Ir.ty array;
      (** the plan's vector type of each scalar type, by {!scalar_index} *)
  an : analysis;
  copy : int;  (** this unroll copy's index *)
  accs_of_red : (Ir.reg, Analysis.Reduction.reduction * Ir.reg array) Hashtbl.t;
      (** reduction reg -> its accumulator in each copy *)
  mutable acc_cursor : int;  (** next access occurrence index *)
  s_map : int array;
      (** original register -> its scalar clone in this copy, or -1 *)
  v_map : int array;
      (** original register -> its vector clone in this copy, or -1 *)
  mutable out : Ir.instr list;  (** the main loop's body so far, reversed *)
}

let emit ctx i = ctx.out <- i :: ctx.out

let map_through (clones : int array) (v : Ir.value) : Ir.value =
  match v with
  | Ir.Reg r when clones.(r) >= 0 -> Ir.Reg clones.(r)
  | _ -> v

let map_scalar ctx = map_through ctx.s_map
let map_vector ctx = map_through ctx.v_map

let scalar_index : Ir.scalar_ty -> int = function
  | Ir.I1 -> 0
  | Ir.I8 -> 1
  | Ir.I16 -> 2
  | Ir.I32 -> 3
  | Ir.I64 -> 4
  | Ir.F32 -> 5
  | Ir.F64 -> 6

(* [Ir.widen vf] of every scalar type, so widening shares one type value
   per element type instead of allocating one per instruction *)
let wide_types (vf : int) : Ir.ty array =
  Array.map
    (fun s -> Ir.widen vf (Ir.Scalar s))
    [| Ir.I1; Ir.I8; Ir.I16; Ir.I32; Ir.I64; Ir.F32; Ir.F64 |]

let wty ctx (ty : Ir.ty) : Ir.ty = ctx.wide.(scalar_index (Ir.elem_ty ty))

let next_stride ctx =
  let s = ctx.an.an_strides.(ctx.acc_cursor) in
  ctx.acc_cursor <- ctx.acc_cursor + 1;
  s

let scalar_rvalue ctx (rv : Ir.rvalue) : Ir.rvalue =
  let mv = map_scalar ctx in
  match rv with
  | Ir.IBin (op, ty, a, b) -> Ir.IBin (op, ty, mv a, mv b)
  | Ir.FBin (op, ty, a, b) -> Ir.FBin (op, ty, mv a, mv b)
  | Ir.ICmp (op, ty, a, b) -> Ir.ICmp (op, ty, mv a, mv b)
  | Ir.FCmp (op, ty, a, b) -> Ir.FCmp (op, ty, mv a, mv b)
  | Ir.Select (ty, c, a, b) -> Ir.Select (ty, mv c, mv a, mv b)
  | Ir.Cast (k, f, t, v) -> Ir.Cast (k, f, t, mv v)
  | Ir.Load (ty, m) -> Ir.Load (ty, { m with Ir.index = mv m.Ir.index })
  | Ir.Mov (ty, v) -> Ir.Mov (ty, mv v)
  | Ir.Splat (ty, v) -> Ir.Splat (ty, mv v)
  | Ir.Extract (s, v, l) -> Ir.Extract (s, mv v, l)
  | Ir.Reduce (o, s, v) -> Ir.Reduce (o, s, mv v)
  | Ir.Stride (ty, v, s) -> Ir.Stride (ty, mv v, s)

let vector_rvalue ctx ~stride ~mask (rv : Ir.rvalue) : Ir.rvalue =
  let mv = map_vector ctx in
  match rv with
  | Ir.IBin (op, ty, a, b) -> Ir.IBin (op, wty ctx ty, mv a, mv b)
  | Ir.FBin (op, ty, a, b) -> Ir.FBin (op, wty ctx ty, mv a, mv b)
  | Ir.ICmp (op, ty, a, b) -> Ir.ICmp (op, wty ctx ty, mv a, mv b)
  | Ir.FCmp (op, ty, a, b) -> Ir.FCmp (op, wty ctx ty, mv a, mv b)
  | Ir.Select (ty, c, a, b) -> Ir.Select (wty ctx ty, mv c, mv a, mv b)
  | Ir.Cast (k, f, t, v) -> Ir.Cast (k, wty ctx f, wty ctx t, mv v)
  | Ir.Load (ty, m) ->
      Ir.Load
        ( wty ctx ty,
          { Ir.base = m.Ir.base; index = map_scalar ctx m.Ir.index; stride;
            mask } )
  | Ir.Mov (ty, v) -> Ir.Mov (wty ctx ty, mv v)
  | Ir.Splat (ty, v) -> Ir.Splat (wty ctx ty, mv v)
  | Ir.Extract (s, v, l) -> Ir.Extract (s, mv v, l)
  | Ir.Reduce (o, s, v) -> Ir.Reduce (o, s, mv v)
  | Ir.Stride (ty, v, s) -> Ir.Stride (wty ctx ty, mv v, s)

(** Element scalar type of a register in the original body. *)
let orig_elem ctx r = Ir.elem_ty (Ir.reg_ty ctx.fn r)

(** Process one original instruction in this unroll copy. *)
let widen_instr ctx ~(mask : Ir.value option) (i : Ir.instr) : unit =
  match i with
  | Ir.Def (r, rv) ->
      let flags = reg_flags ctx.an r in
      (* scalar clone for index uses *)
      if flags land index_bit <> 0 then begin
        let r_s = Ir.fresh_reg ctx.fn (Ir.reg_ty ctx.fn r) in
        emit ctx (Ir.Def (r_s, scalar_rvalue ctx rv));
        ctx.s_map.(r) <- r_s
      end;
      (* vector clone for data uses (also the default for dead defs) *)
      if vector_form flags then begin
        let is_load = match rv with Ir.Load _ -> true | _ -> false in
        let stride = if is_load then next_stride ctx else 0 in
        let target =
          if flags land reduction_bit <> 0 then
            (snd (Hashtbl.find ctx.accs_of_red r)).(ctx.copy)
          else Ir.fresh_reg ctx.fn (wty ctx (Ir.reg_ty ctx.fn r))
        in
        emit ctx (Ir.Def (target, vector_rvalue ctx ~stride ~mask rv));
        ctx.v_map.(r) <- target
      end
      else begin
        (* index-only def still consumes its access slot if it's a load *)
        match rv with Ir.Load _ -> ignore (next_stride ctx) | _ -> ()
      end
  | Ir.Store (ty, m, v) ->
      let stride = next_stride ctx in
      emit ctx
        (Ir.Store
           ( wty ctx ty,
             { Ir.base = m.Ir.base; index = map_scalar ctx m.Ir.index; stride;
               mask },
             map_vector ctx v ))
  | Ir.CallI _ -> invalid_arg "widen_instr: calls are not vectorizable"

(* the instructions of an [If] branch, which the analysis found to hold
   only blocks *)
let widen_branch ctx ~mask (nodes : Ir.node list) : unit =
  List.iter
    (function
      | Ir.Block is -> List.iter (widen_instr ctx ~mask) is
      | _ -> invalid_arg "widen_branch: nested control under If")
    nodes

(** If-convert one [If]: cond → mask; both branches masked; the vector
    clones of [merges], the registers the branches define, merged.  Only
    those clones change in the branches, so only they are saved and
    restored around them. *)
let widen_if ctx ((ci, cv) : Ir.code) (then_ : Ir.node list)
    (else_ : Ir.node list) (merges : int array) : unit =
  List.iter (widen_instr ctx ~mask:None) ci;
  let m = map_vector ctx cv in
  let mask_ty = wty ctx (Ir.Scalar Ir.I1) in
  let v = ctx.v_map in
  let before = Array.map (fun r -> v.(r)) merges in
  widen_branch ctx ~mask:(Some m) then_;
  let after_then = Array.map (fun r -> v.(r)) merges in
  Array.iteri (fun k r -> v.(r) <- before.(k)) merges;
  let not_m =
    if not (List.exists (function Ir.Block (_ :: _) -> true | _ -> false) else_)
    then Ir.IConst 0L (* unused *)
    else begin
      let r = Ir.fresh_reg ctx.fn mask_ty in
      emit ctx (Ir.Def (r, Ir.IBin (Ir.Xor, mask_ty, m, Ir.IConst 1L)));
      Ir.Reg r
    end
  in
  widen_branch ctx ~mask:(Some not_m) else_;
  (* [v] holds the else clones; each merge writes only its own entry *)
  Array.iteri
    (fun k r ->
      if reg_flags ctx.an r land reduction_bit <> 0 then
        (* predicated reductions were rejected by legality *)
        invalid_arg "widen_if: predicated reduction";
      let prev = before.(k) and t = after_then.(k) and e = v.(r) in
      let tv =
        if t >= 0 then t
        else if prev >= 0 then prev
        else if e >= 0 then e
        else assert false
      in
      let ev = if e >= 0 then e else if prev >= 0 then prev else tv in
      if tv = ev then v.(r) <- tv
      else begin
        let vty = wty ctx (Ir.Scalar (orig_elem ctx r)) in
        let sel = Ir.fresh_reg ctx.fn vty in
        emit ctx (Ir.Def (sel, Ir.Select (vty, m, Ir.Reg tv, Ir.Reg ev)));
        v.(r) <- sel
      end)
    merges

(* one unroll copy of the body, in processing order *)
let widen_body ctx (nodes : Ir.node list) : unit =
  let k = ref 0 in
  List.iter
    (function
      | Ir.Block is -> List.iter (widen_instr ctx ~mask:None) is
      | Ir.If { cond; then_; else_ } ->
          widen_if ctx cond then_ else_ ctx.an.an_merges.(!k);
          incr k
      | _ -> invalid_arg "widen_body: body not legal for vectorization")
    nodes

(* ------------------------------------------------------------------ *)
(* The full transform                                                   *)
(* ------------------------------------------------------------------ *)

let fbin_of_red : Analysis.Reduction.kind -> Ir.fbin = function
  | Analysis.Reduction.RedAdd -> Ir.FAdd
  | Analysis.Reduction.RedMul -> Ir.FMul
  | _ -> invalid_arg "float reduction kind"

let ibin_of_red : Analysis.Reduction.kind -> Ir.ibin = function
  | Analysis.Reduction.RedAdd -> Ir.Add
  | Analysis.Reduction.RedMul -> Ir.Mul
  | Analysis.Reduction.RedAnd -> Ir.And
  | Analysis.Reduction.RedOr -> Ir.Or
  | Analysis.Reduction.RedXor -> Ir.Xor

let reduce_op_of_red : Analysis.Reduction.kind -> Ir.reduce_op = function
  | Analysis.Reduction.RedAdd -> Ir.RAdd
  | Analysis.Reduction.RedMul -> Ir.RMul
  | Analysis.Reduction.RedAnd -> Ir.RAnd
  | Analysis.Reduction.RedOr -> Ir.ROr
  | Analysis.Reduction.RedXor -> Ir.RXor

(** Apply the transform. The caller guarantees legality ([Legality.clamp]
    was used on the plan). [analysis], when given, is {!prepare} of a
    loop structurally identical to [info]'s; without it the loop is
    analyzed here. Returns the replacement nodes. *)
let vectorize ?(analysis : prepared option) (fn : Ir.func)
    (info : Analysis.Loopinfo.t) (p : plan) : Ir.node list =
  let l = info.Analysis.Loopinfo.li_loop in
  if p.vf = 1 && p.if_ = 1 then
    [ Ir.Loop { l with Ir.l_pragma = None } ]
  else begin
    let vf = p.vf and if_ = p.if_ in
    let k = vf * if_ in
    let an =
      match analysis with
      | None -> analyze info
      | Some (Ok an) -> an
      | Some (Error e) -> raise e
    in
    let reductions = info.Analysis.Loopinfo.li_reductions in
    let var_sty =
      match Ir.reg_ty fn l.Ir.l_var with Ir.Scalar s -> s | Ir.Vec (_, s) -> s
    in
    let setup = ref [] and epilogue = ref [] in
    let push_setup i = setup := i :: !setup in
    let push_epi i = epilogue := i :: !epilogue in
    (* reduction accumulators: one per unroll copy *)
    let accs_of_red = Hashtbl.create 4 in
    List.iter
      (fun red ->
        let r = red.Analysis.Reduction.red_reg in
        let sty = Ir.elem_ty (Ir.reg_ty fn r) in
        let vty = Ir.widen vf (Ir.Scalar sty) in
        let accs =
          Array.init if_ (fun _ ->
              let a = Ir.fresh_reg fn vty in
              let ident =
                Analysis.Reduction.identity_value red.Analysis.Reduction.red_kind
                  red.Analysis.Reduction.red_float
              in
              push_setup (Ir.Def (a, Ir.Splat (vty, ident)));
              a)
        in
        Hashtbl.replace accs_of_red r (red, accs))
      reductions;
    (* per-copy widening; the clone arrays keep the last copy's entries
       for the epilogue *)
    let nregs = fn.Ir.fn_nregs in
    let s_map = Array.make nregs (-1) and v_map = Array.make nregs (-1) in
    let wide = wide_types vf in
    let body_out = ref [] in
    for u = 0 to if_ - 1 do
      let var_u =
        if u = 0 then l.Ir.l_var
        else begin
          let r = Ir.fresh_reg fn (Ir.Scalar var_sty) in
          body_out :=
            Ir.Def
              ( r,
                Ir.IBin
                  ( Ir.Add, Ir.Scalar var_sty, Ir.Reg l.Ir.l_var,
                    Ir.IConst (Int64.of_int (u * vf * l.Ir.l_step)) ) )
            :: !body_out;
          r
        end
      in
      (* vector induction value for data uses of the loop variable *)
      let iv_ty = Ir.widen vf (Ir.Scalar var_sty) in
      let iv_u = Ir.fresh_reg fn iv_ty in
      body_out :=
        Ir.Def (iv_u, Ir.Stride (iv_ty, Ir.Reg var_u, l.Ir.l_step))
        :: !body_out;
      Array.fill s_map 0 nregs (-1);
      Array.fill v_map 0 nregs (-1);
      s_map.(l.Ir.l_var) <- var_u;
      Hashtbl.iter (fun r (_, accs) -> v_map.(r) <- accs.(u)) accs_of_red;
      v_map.(l.Ir.l_var) <- iv_u;
      let ctx =
        { fn; wide; an; copy = u; accs_of_red; acc_cursor = 0; s_map;
          v_map; out = !body_out }
      in
      widen_body ctx l.Ir.l_body;
      body_out := ctx.out
    done;
    let body_instrs = List.rev !body_out in
    (* epilogue: combine reductions into the original scalar register *)
    Hashtbl.iter
      (fun r (red, accs) ->
        let sty = Ir.elem_ty (Ir.reg_ty fn r) in
        let partials =
          Array.to_list accs
          |> List.map (fun a ->
                 if vf = 1 then Ir.Reg a
                 else begin
                   let s = Ir.fresh_reg fn (Ir.Scalar sty) in
                   push_epi
                     (Ir.Def
                        ( s,
                          Ir.Reduce
                            ( reduce_op_of_red red.Analysis.Reduction.red_kind,
                              sty, Ir.Reg a ) ));
                   Ir.Reg s
                 end)
        in
        (* r := r op p0 op p1 ... *)
        let combine acc v =
          let t = Ir.fresh_reg fn (Ir.Scalar sty) in
          let rv =
            if red.Analysis.Reduction.red_float then
              Ir.FBin (fbin_of_red red.Analysis.Reduction.red_kind,
                       Ir.Scalar sty, acc, v)
            else
              Ir.IBin (ibin_of_red red.Analysis.Reduction.red_kind,
                       Ir.Scalar sty, acc, v)
          in
          push_epi (Ir.Def (t, rv));
          Ir.Reg t
        in
        let final = List.fold_left combine (Ir.Reg r) partials in
        push_epi (Ir.Def (r, Ir.Mov (Ir.Scalar sty, final))))
      accs_of_red;
    (* epilogue: restore every non-reduction defined register to its
       last-processed-iteration value; pre-seed so the extract is defined
       even when the main loop runs zero times *)
    Bytes.iteri
      (fun k flags ->
        let flags = Char.code flags and r = an.an_lo + k in
        if flags land defined_bit <> 0 && flags land reduction_bit = 0
        then begin
          let sty = Ir.elem_ty (Ir.reg_ty fn r) in
          if v_map.(r) >= 0 then begin
            let vr = v_map.(r) in
            push_setup
              (Ir.Def (vr, Ir.Splat (Ir.widen vf (Ir.Scalar sty), Ir.Reg r)));
            if vf = 1 then
              push_epi (Ir.Def (r, Ir.Mov (Ir.Scalar sty, Ir.Reg vr)))
            else push_epi (Ir.Def (r, Ir.Extract (sty, Ir.Reg vr, vf - 1)))
          end
          else if s_map.(r) >= 0 then begin
            (* index-only register: restore from its scalar clone *)
            let sr = s_map.(r) in
            push_setup (Ir.Def (sr, Ir.Mov (Ir.Scalar sty, Ir.Reg r)));
            push_epi (Ir.Def (r, Ir.Mov (Ir.Scalar sty, Ir.Reg sr)))
          end
        end)
      an.an_regs;
    (* adjusted main-loop bound: all K lanes must satisfy the exit test *)
    let bi, bv = l.Ir.l_bound in
    let ab = Ir.fresh_reg fn (Ir.Scalar var_sty) in
    let bound_adjust =
      Ir.Def
        ( ab,
          Ir.IBin
            ( Ir.Sub, Ir.Scalar var_sty, bv,
              Ir.IConst (Int64.of_int ((k - 1) * l.Ir.l_step)) ) )
    in
    (* trip hints: exact when the original bounds are static, an expected
       value otherwise — the timing model has no way to see through the
       register-carried remainder start *)
    let orig_trip =
      match Analysis.Loopinfo.static_trip_count l with
      | Some t -> Some t
      | None -> l.Ir.l_trip_hint
    in
    let main_hint, rem_hint =
      match orig_trip with
      | Some t -> (Some (t / k), Some (t mod k))
      | None -> (None, Some (k / 2))
    in
    let main_loop =
      Ir.Loop
        {
          l with
          Ir.l_bound = (bi @ [ bound_adjust ], Ir.Reg ab);
          l_step = k * l.Ir.l_step;
          l_pragma = None;
          l_body = [ Ir.Block body_instrs ];
          l_trip_hint = main_hint;
        }
    in
    let remainder =
      Ir.Loop
        {
          l with
          Ir.l_id = l.Ir.l_id + 100000;
          l_init = ([], Ir.Reg l.Ir.l_var);
          l_pragma = None;
          l_trip_hint = rem_hint;
        }
    in
    [ Ir.Block (List.rev !setup); main_loop; Ir.Block (List.rev !epilogue);
      remainder ]
  end

(** Vectorize one loop of a function in place (by loop id), passing
    [analysis] on to {!vectorize}.  Only the path from the body's root to
    the loop is rebuilt; untouched subtrees stay as they are.  Returns
    [true] if the loop was found. *)
let vectorize_in_func ?analysis (fn : Ir.func) (info : Analysis.Loopinfo.t)
    (p : plan) : bool =
  let target = info.Analysis.Loopinfo.li_loop.Ir.l_id in
  let found = ref false in
  let rec rewrite (nodes : Ir.node list) : Ir.node list =
    match nodes with
    | [] -> nodes
    | Ir.Loop l :: rest when l.Ir.l_id = target ->
        found := true;
        let repl =
          vectorize ?analysis fn { info with Analysis.Loopinfo.li_loop = l } p
        in
        repl @ rewrite rest
    | n :: rest ->
        let n' = rewrite_node n in
        let rest' = rewrite rest in
        if n' == n && rest' == rest then nodes else n' :: rest'
  and rewrite_node (n : Ir.node) : Ir.node =
    match n with
    | Ir.Loop l ->
        let body = rewrite l.Ir.l_body in
        if body == l.Ir.l_body then n else Ir.Loop { l with Ir.l_body = body }
    | Ir.If { cond; then_; else_ } ->
        let t = rewrite then_ in
        let e = rewrite else_ in
        if t == then_ && e == else_ then n
        else Ir.If { cond; then_ = t; else_ = e }
    | Ir.WhileLoop { w_cond; w_body } ->
        let body = rewrite w_body in
        if body == w_body then n else Ir.WhileLoop { w_cond; w_body = body }
    | Ir.Block _ | Ir.Return _ | Ir.BreakN | Ir.ContinueN -> n
  in
  fn.Ir.fn_body <- rewrite fn.Ir.fn_body;
  !found
