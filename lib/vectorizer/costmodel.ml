(** The baseline vectorization cost model — a faithful reconstruction of the
    *kind* of model LLVM's LoopVectorizationCostModel uses, and the thing
    the paper's RL agent learns to beat.

    It is a linear, per-instruction model: each IR operation has a fixed
    table cost; the vector cost at width [VF] is the scalar cost scaled by
    the number of 128-bit chunks the operation legalizes into (LLVM's
    default pessimistic assumption when it cannot prove the wider ISA
    profitable — this is where the "cost model is too conservative"
    headroom in the paper comes from). It knows nothing about port
    pressure, latency hiding, cache behaviour, or the computation graph:
    exactly the blind spots Figure 1 of the paper demonstrates. *)

type cost_table = {
  c_int_alu : int;
  c_int_mul : int;
  c_div : int;
  c_fp_alu : int;
  c_cmp : int;
  c_select : int;
  c_cast : int;
  c_load : int;
  c_store : int;
  c_gather_per_lane : int;  (** scalarized non-unit-stride access, per lane *)
  c_mask_overhead : int;
  baseline_vector_bits : int;  (** width assumed free of penalty (SSE) *)
  max_interleave : int;
}

let default_table =
  {
    c_int_alu = 1;
    c_int_mul = 2;
    c_div = 15;
    c_fp_alu = 2;
    c_cmp = 1;
    c_select = 1;
    c_cast = 1;
    c_load = 2;
    c_store = 2;
    c_gather_per_lane = 6;
    c_mask_overhead = 2;
    baseline_vector_bits = 128;
    max_interleave = 2;
  }

(** Scalar cost of one instruction. *)
let scalar_instr_cost (t : cost_table) (i : Ir.instr) : int =
  match i with
  | Ir.Def (_, rv) -> (
      match rv with
      | Ir.IBin ((Ir.Add | Ir.Sub | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.AShr), _, _, _)
        ->
          t.c_int_alu
      | Ir.IBin (Ir.Mul, _, _, _) -> t.c_int_mul
      | Ir.IBin ((Ir.SDiv | Ir.SRem), _, _, _) -> t.c_div
      | Ir.FBin (Ir.FDiv, _, _, _) -> t.c_div
      | Ir.FBin (_, _, _, _) -> t.c_fp_alu
      | Ir.ICmp _ | Ir.FCmp _ -> t.c_cmp
      | Ir.Select _ -> t.c_select
      | Ir.Cast _ -> t.c_cast
      | Ir.Load _ -> t.c_load
      | Ir.Splat _ | Ir.Extract _ | Ir.Mov _ | Ir.Stride _ -> 0
      | Ir.Reduce _ -> t.c_fp_alu * 3)
  | Ir.Store _ -> t.c_store
  | Ir.CallI _ -> 10

(** Scalar cost of one loop iteration (instructions of the body). *)
let scalar_body_cost (t : cost_table) (body : Ir.node list) : int =
  List.fold_left (fun acc i -> acc + scalar_instr_cost t i) 0 (Ir.all_instrs body)

(** Legalization factor: how many [baseline_vector_bits]-wide operations a
    [VF]-wide op on [elem] lanes splits into. *)
let split_factor (t : cost_table) ~vf (elem : Ir.scalar_ty) : int =
  let bits = vf * Ir.scalar_size elem * 8 in
  max 1 ((bits + t.baseline_vector_bits - 1) / t.baseline_vector_bits)

(** Predicted cost of one *vector* iteration (covering [vf] scalar
    iterations) for the loop described by [info]. *)
let vector_iteration_cost (t : cost_table) (info : Analysis.Loopinfo.t) ~vf :
    int =
  let l = info.Analysis.Loopinfo.li_loop in
  let predicated = info.Analysis.Loopinfo.li_if_depth > 0 in
  (* pair each load/store instruction with its analysed access, in order *)
  let accesses = ref info.Analysis.Loopinfo.li_accesses in
  let next_access () =
    match !accesses with
    | a :: rest ->
        accesses := rest;
        Some a
    | [] -> None
  in
  let cost_of (i : Ir.instr) : int =
    let mem_cost (base_cost : int) (elem : Ir.scalar_ty) =
      match next_access () with
      | Some a -> (
          match Analysis.Access.iter_stride l a with
          | Some s when abs s = 1 ->
              let c = base_cost * split_factor t ~vf elem in
              if predicated && a.Analysis.Access.acc_predicated then
                c + (t.c_mask_overhead * split_factor t ~vf elem)
              else c
          | _ ->
              (* non-unit stride: scalarized gather/scatter *)
              vf * t.c_gather_per_lane)
      | None -> base_cost * split_factor t ~vf elem
    in
    match i with
    | Ir.Def (_, Ir.Load (ty, _)) -> mem_cost t.c_load (Ir.elem_ty ty)
    | Ir.Store (ty, _, _) -> mem_cost t.c_store (Ir.elem_ty ty)
    | Ir.Def (_, rv) ->
        let elem =
          match rv with
          | Ir.IBin (_, ty, _, _) | Ir.FBin (_, ty, _, _) | Ir.ICmp (_, ty, _, _)
          | Ir.FCmp (_, ty, _, _) | Ir.Select (ty, _, _, _)
          | Ir.Cast (_, _, ty, _) | Ir.Mov (ty, _) | Ir.Splat (ty, _)
          | Ir.Load (ty, _) | Ir.Stride (ty, _, _) ->
              Ir.elem_ty ty
          | Ir.Extract (s, _, _) | Ir.Reduce (_, s, _) -> s
        in
        scalar_instr_cost t i * split_factor t ~vf elem
    | Ir.CallI _ -> 10 * vf
  in
  List.fold_left (fun acc i -> acc + cost_of i) 0 (Ir.all_instrs l.Ir.l_body)

(** Largest element type accessed in memory by the loop body, which bounds
    the baseline's maximum VF (LLVM: widest register / widest *memory*
    type — index arithmetic does not count, it stays scalar). *)
let widest_elem_bits (body : Ir.node list) : int =
  List.fold_left
    (fun acc i ->
      let of_ty ty = 8 * Ir.scalar_size (Ir.elem_ty ty) in
      match i with
      | Ir.Def (_, Ir.Load (ty, _)) -> max acc (of_ty ty)
      | Ir.Store (ty, _, _) -> max acc (of_ty ty)
      | Ir.Def _ -> acc
      | Ir.CallI _ -> max acc 64)
    8
    (Ir.all_instrs body)

(** The baseline decision: pick the VF minimizing predicted cost per scalar
    iteration, then a small interleave factor by LLVM-style heuristics. *)
let choose (leg : Legality.t) : Transform.plan =
  let info = leg.Legality.info in
  let l = info.Analysis.Loopinfo.li_loop in
  if not leg.Legality.can_vectorize then Transform.no_vectorize
  else begin
    let max_vf_type =
      default_table.baseline_vector_bits / widest_elem_bits l.Ir.l_body
    in
    let max_vf = max 1 (min max_vf_type leg.Legality.max_vf) in
    let scalar_cost = scalar_body_cost default_table l.Ir.l_body in
    let best = ref (1, float_of_int scalar_cost) in
    let vf = ref 2 in
    while !vf <= max_vf do
      let c =
        float_of_int (vector_iteration_cost default_table info ~vf:!vf)
        /. float_of_int !vf
      in
      let _, best_c = !best in
      if c < best_c then best := (!vf, c);
      vf := !vf * 2
    done;
    let vf, _ = !best in
    if vf = 1 then Transform.no_vectorize
    else begin
      (* Interleave when the body is small and the trip count allows it —
         LLVM's "interleave small loops to hide latency" rule. *)
      let tc = info.Analysis.Loopinfo.li_trip_count in
      let small = scalar_cost <= 24 in
      let enough_iters =
        match tc with Some n -> n >= vf * 8 | None -> true
      in
      let if_ =
        if small && enough_iters then default_table.max_interleave else 1
      in
      { Transform.vf; if_ }
    end
  end
