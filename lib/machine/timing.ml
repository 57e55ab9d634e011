(** Analytic execution-time model ("the hardware").

    For each loop, the per-iteration cost is the maximum of several bounds,
    llvm-mca style:

    - total uops / issue width,
    - per-port-class uops / port count (int ALU, FP, load, store),
    - bytes moved / memory-level bandwidth (level picked by the footprint
      of the arrays the loop touches),
    - the loop-carried dependence chain latency (reduction chains).

    plus loop overhead, register-spill traffic when the body needs more
    live vector registers than the target has, and branch-misprediction
    cost for data-dependent scalar branches. Nested loops contribute their
    full cost to the enclosing iteration. Trip counts come from static
    bounds when available (always, in the benchmark corpus).

    The model is *not* linear in VF and IF: latency hiding, port
    saturation, spills, gathers and cache levels interact — which is why a
    learned policy can beat the linear baseline cost model, reproducing the
    paper's central premise. *)

type resources = {
  mutable uops : float;
  mutable uops_int : float;
  mutable uops_fp : float;
  mutable uops_load : float;
  mutable uops_store : float;
  mutable bytes : float;
  mutable carried_lat : float;  (** loop-carried chain latency *)
  mutable vreg_slots : int;  (** physical vector registers needed *)
  mutable branch_cost : float;
  mutable inner_cycles : float;  (** total cycles of nested loops *)
}

let new_resources () =
  { uops = 0.0; uops_int = 0.0; uops_fp = 0.0; uops_load = 0.0;
    uops_store = 0.0; bytes = 0.0; carried_lat = 0.0; vreg_slots = 0;
    branch_cost = 0.0; inner_cycles = 0.0 }

(** Number of [vec_bits]-wide physical operations a value of type [ty]
    occupies. *)
let chunks (tgt : Target.t) (ty : Ir.ty) : int =
  match ty with
  | Ir.Scalar _ -> 1
  | Ir.Vec (n, s) ->
      max 1 ((n * Ir.scalar_size s * 8 + tgt.Target.vec_bits - 1) / tgt.Target.vec_bits)

(** Costing context: the target, the module, the enclosing function, and
    the per-module static tables the memoized path hoists once per
    [cycles] call instead of recomputing per loop.  [use_memo:false] is
    the legacy reference the sweep benchmark compares against: it
    reproduces the pre-memo model {e implementation} — linear
    [Ir.find_array] scans per footprint query, no hoisted tables, no key
    computation — so the benchmark's legacy column prices what every
    sweep cost before this optimization.  Both modes compute bit-identical
    cycle counts. *)
type ctx = {
  tgt : Target.t;
  m : Ir.modul;
  fn : Ir.func;
  arr_tbl : (string, int) Hashtbl.t option;
      (** array name -> total bytes, hoisted once per module;
          [None] in legacy mode *)
  key_prefix : string;
      (** target + array shapes, shared by every per-loop memo key of
          this module; empty in legacy mode *)
  use_memo : bool;
}

(** Total bytes of array [base], [default] when unknown: hoisted table in
    memo mode, the pre-memo linear scan otherwise. *)
let array_bytes (ctx : ctx) ~(default : int) (base : string) : int =
  match ctx.arr_tbl with
  | Some tbl -> Option.value ~default (Hashtbl.find_opt tbl base)
  | None -> (
      match Ir.find_array ctx.m base with
      | Some a -> Ir.array_elems a * Ir.scalar_size a.Ir.arr_elem
      | None -> default)

(** Memory footprint (bytes) of the arrays a set of instructions touch. *)
let footprint (ctx : ctx) (instrs : Ir.instr list) : int =
  let bases = Hashtbl.create 8 in
  List.iter
    (fun i ->
      match i with
      | Ir.Def (_, Ir.Load (_, mr)) | Ir.Store (_, mr, _) ->
          Hashtbl.replace bases mr.Ir.base ()
      | _ -> ())
    instrs;
  Hashtbl.fold
    (fun base () acc -> acc + array_bytes ctx ~default:0 base)
    bases 0

let bandwidth_for (tgt : Target.t) (fp : int) : float =
  if fp <= tgt.Target.l1_bytes then tgt.Target.bw_l1
  else if fp <= tgt.Target.l2_bytes then tgt.Target.bw_l2
  else tgt.Target.bw_mem

let load_latency_for (tgt : Target.t) (fp : int) : float =
  if fp <= tgt.Target.l1_bytes then tgt.Target.lat_load_l1
  else if fp <= tgt.Target.l2_bytes then tgt.Target.lat_load_l2
  else tgt.Target.lat_load_mem

(** Account one instruction into [res]. [fp] is the loop's footprint. *)
let account (tgt : Target.t) (res : resources) ~(fp : int) (i : Ir.instr) :
    unit =
  ignore fp;
  let add_uops ?(int_ = 0.0) ?(fpu = 0.0) ?(ld = 0.0) ?(st = 0.0) n =
    res.uops <- res.uops +. n;
    res.uops_int <- res.uops_int +. int_;
    res.uops_fp <- res.uops_fp +. fpu;
    res.uops_load <- res.uops_load +. ld;
    res.uops_store <- res.uops_store +. st
  in
  let mem_traffic (ty : Ir.ty) (mr : Ir.mem_ref) : float * float =
    (* (uops, bytes) for the access *)
    let lanes = Ir.width ty in
    let esz = Ir.scalar_size (Ir.elem_ty ty) in
    if lanes = 1 then (1.0, float_of_int esz)
    else if abs mr.Ir.stride = 1 then begin
      let c = float_of_int (chunks tgt ty) in
      let c = if mr.Ir.mask <> None then c +. 1.0 else c in
      (c, float_of_int (lanes * esz))
    end
    else
      (* gather/scatter: one access per lane; each lane may pull its own
         cache line *)
      ( float_of_int lanes,
        float_of_int (lanes * min (abs mr.Ir.stride * esz) 64) )
  in
  match i with
  | Ir.Def (_, rv) -> (
      match rv with
      | Ir.IBin (op, ty, _, _) ->
          let c = float_of_int (chunks tgt ty) in
          let extra =
            match op with Ir.SDiv | Ir.SRem -> c *. 6.0 | _ -> 0.0
          in
          add_uops ~int_:(c +. extra) (c +. extra)
      | Ir.FBin (op, ty, _, _) ->
          let c = float_of_int (chunks tgt ty) in
          let extra =
            match op with Ir.FDiv -> c *. 6.0 | _ -> 0.0
          in
          add_uops ~fpu:(c +. extra) (c +. extra)
      | Ir.ICmp (_, ty, _, _) | Ir.FCmp (_, ty, _, _) | Ir.Select (ty, _, _, _)
        ->
          let c = float_of_int (chunks tgt ty) in
          add_uops ~int_:c c
      | Ir.Cast (_, _, to_, _) ->
          let c = float_of_int (chunks tgt to_) in
          add_uops ~int_:c c
      | Ir.Load (ty, mr) ->
          let u, b = mem_traffic ty mr in
          add_uops ~ld:u u;
          res.bytes <- res.bytes +. b
      | Ir.Splat (Ir.Scalar _, _) | Ir.Stride (Ir.Scalar _, _, _) ->
          (* scalar splat/stride are no-ops *)
          ()
      | Ir.Splat (ty, _) | Ir.Stride (ty, _, _) ->
          let c = float_of_int (chunks tgt ty) in
          add_uops ~int_:c c
      | Ir.Extract _ -> add_uops ~int_:1.0 1.0
      | Ir.Reduce (_, _, _) ->
          (* log2(width) shuffles+ops; charge a small constant *)
          add_uops ~int_:3.0 3.0
      | Ir.Mov _ ->
          (* register moves are renamed away *)
          ())
  | Ir.Store (ty, mr, _) ->
      let u, b = mem_traffic ty mr in
      add_uops ~st:u u;
      res.bytes <- res.bytes +. b
  | Ir.CallI _ -> add_uops ~fpu:10.0 15.0

(** Vector register pressure of a block via linear-scan live ranges:
    the maximum, over program points, of the physical registers occupied by
    simultaneously-live vector values. Loop-carried vectors (accumulators)
    are live across the whole iteration. *)
let vector_pressure (tgt : Target.t) (fn : Ir.func) (instrs : Ir.instr list)
    ~(carried : Transform_probe.IntSet.t) : int =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  if n = 0 then 0
  else begin
    let first_def = Hashtbl.create 16 and last_use = Hashtbl.create 16 in
    Array.iteri
      (fun i instr ->
        List.iter
          (fun r -> Hashtbl.replace last_use r i)
          (Transform_probe.instr_regs instr);
        match instr with
        | Ir.Def (r, _) ->
            if not (Hashtbl.mem first_def r) then Hashtbl.replace first_def r i
        | _ -> ())
      arr;
    let deltas = Array.make (n + 1) 0 in
    Hashtbl.iter
      (fun r d ->
        match Ir.reg_ty fn r with
        | Ir.Vec _ as ty ->
            let c = chunks tgt ty in
            let lo, hi =
              if Transform_probe.IntSet.mem r carried then (0, n - 1)
              else (d, match Hashtbl.find_opt last_use r with
                       | Some u -> max u d
                       | None -> d)
            in
            deltas.(lo) <- deltas.(lo) + c;
            deltas.(hi + 1) <- deltas.(hi + 1) - c
        | Ir.Scalar _ -> ())
      first_def;
    let live = ref 0 and peak = ref 0 in
    Array.iter
      (fun d ->
        live := !live + d;
        if !live > !peak then peak := !live)
      deltas;
    !peak
  end

(** Latency of the slowest loop-carried dependence chain: for each carried
    register, the latency of the operation that produces its new value
    (looking through movs). Chains are independent of each other, so the
    bound is the max, not the sum — this is why interleaving hides latency. *)
let chain_bound (tgt : Target.t) ~(fp : int)
    ~(def_of : Ir.reg -> Ir.rvalue option) : Transform_probe.IntSet.t -> float
    = fun carried ->
  let rec lat_of depth (rv : Ir.rvalue) : float =
    let open Target in
    match rv with
    | Ir.IBin (Ir.Mul, _, _, _) -> tgt.lat_int_mul
    | Ir.IBin ((Ir.SDiv | Ir.SRem), _, _, _) | Ir.FBin (Ir.FDiv, _, _, _) ->
        tgt.lat_div
    | Ir.IBin _ | Ir.ICmp _ | Ir.FCmp _ | Ir.Select _ | Ir.Cast _
    | Ir.Splat _ | Ir.Extract _ | Ir.Stride _ ->
        tgt.lat_int_alu
    | Ir.FBin _ -> tgt.lat_fp
    | Ir.Load _ -> load_latency_for tgt fp
    | Ir.Reduce _ -> 3.0
    | Ir.Mov (_, Ir.Reg t) when depth < 4 -> (
        match def_of t with Some rv' -> lat_of (depth + 1) rv' | None -> 0.5)
    | Ir.Mov _ -> 0.5
  in
  Transform_probe.IntSet.fold
    (fun r acc ->
      match def_of r with Some rv -> max acc (lat_of 0 rv) | None -> acc)
    carried 0.0

(** Working-set footprint of one loop execution: for each access, the span
    of addresses it sweeps across the loop's [trip] iterations —
    [|stride per iteration| * trip * elem_size], capped by the array size;
    loop-invariant accesses touch one cache line. This is what makes loop
    tiling profitable: a tiled inner loop sweeps a tile-sized span that
    fits in L1 instead of a whole row/column. Non-affine accesses are
    charged the whole array. *)
let span_footprint (ctx : ctx) (l : Ir.loop) (trip : int)
    (instrs : Ir.instr list) : int * float =
  let tgt = ctx.tgt in
  let env =
    Analysis.Scev.make_env ~induction_vars:[ l.Ir.l_var ]
      [ Ir.Block instrs ]
  in
  let total = ref 0 in
  let lines_per_iter = ref 0.0 in
  let record (ty : Ir.ty) (mr : Ir.mem_ref) =
    let arr_bytes = array_bytes ctx ~default:64 mr.Ir.base in
    let esz = Ir.scalar_size (Ir.elem_ty ty) in
    let lanes = Ir.width ty in
    let sv = Analysis.Scev.eval_value env mr.Ir.index in
    let span, advance =
      match sv with
      | Analysis.Scev.Unknown -> (arr_bytes, 64)
      | Analysis.Scev.Affine _ ->
          let per_iter = Analysis.Scev.coeff_of l.Ir.l_var sv * l.Ir.l_step in
          if per_iter = 0 then (64, 0)
          else
            ( min arr_bytes
                ((abs per_iter * trip * esz)
                 + (lanes * abs mr.Ir.stride * esz)),
              abs per_iter * esz )
    in
    total := !total + span;
    (* cache lines newly touched per iteration, only when the access's span
       does not stay resident in L1 *)
    if span > tgt.Target.l1_bytes then begin
      let lines =
        if lanes = 1 then min 1.0 (float_of_int advance /. 64.0)
        else
          float_of_int lanes
          *. min 1.0 (float_of_int (abs mr.Ir.stride * esz) /. 64.0)
      in
      lines_per_iter := !lines_per_iter +. lines
    end
  in
  List.iter
    (fun i ->
      (match i with
      | Ir.Def (_, Ir.Load (ty, mr)) -> record ty mr
      | Ir.Store (ty, mr, _) -> record ty mr
      | _ -> ());
      Analysis.Scev.step env i)
    instrs;
  (!total, !lines_per_iter)

(* ------------------------------------------------------------------ *)
(* Per-loop memoization                                                 *)
(* ------------------------------------------------------------------ *)

(* A loop's cycle count is a pure function of the target, the loop subtree
   (including init/bound code, trip hints and static bounds), the types it
   computes with, and the shapes of the arrays it touches.  An action
   sweep evaluates the same program 35 times — legality clamping collapses
   some of those (vf, if) pairs onto identical transformed loops, and
   distinct actions share scalar epilogues and untouched sibling loops —
   so costing by content turns the repeats into table hits.

   The key is the loop's serialized content: [Marshal] emits exactly the
   fields costing reads — induction variable, init/bound code, compare,
   step, trip hint and body (with every instruction's types, operands,
   strides and masks) — prefixed by a digest of the target and the
   module's array shapes.  [l_id] and [l_pragma] are deliberately left
   out: costing never reads them, and keying on them would split entries
   that price identically.  Marshal runs at C speed (a fraction of the
   cost of actually costing the subtree), and the marshaled bytes are the
   table key directly — no second digest pass over them, and, unlike
   keying on the loop structure itself, the table retains flat strings the
   collector marks in O(1) rather than live IR trees it must trace, so a
   long sweep does not drag every transformed loop it ever costed into
   major-heap mark work.  The key's first 16 bytes are the prefix digest,
   which is what {!Memo} shards on. *)

let memo : float Memo.t = Memo.create ~name:"timing" ~cap:16384

(** Digest of the target fields + array shapes, computed once per module:
    every cost-relevant input that is not in the loop serialization,
    folded to 16 bytes so per-loop keys pay for it once, not per byte. *)
let key_prefix (tgt : Target.t) (m : Ir.modul) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Marshal.to_string tgt []);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%s[%s]@%d;" a.Ir.arr_name
           (Ir.scalar_ty_to_string a.Ir.arr_elem)
           (String.concat "," (List.map string_of_int a.Ir.arr_dims))
           a.Ir.arr_align))
    m.Ir.m_arrays;
  Digest.string (Buffer.contents buf)

(** Only loops this small are memoized.  The hits live in the small,
    structurally shared loops — scalar epilogues, untouched siblings,
    interleave-only bodies — because identical {e whole transformed
    modules} are already collapsed upstream by the pipeline's per-point
    memo before timing ever runs; a wide VF x IF body is unique to its
    point, so building its (body-sized) key could never pay for itself.
    Gating by size keeps the hits and drops that dead weight.  The gate
    only selects {e which} loops consult the table — costing itself is
    identical — so cycle counts are bit-equal at any threshold. *)
let memo_max_instrs = 64

(** Number of instructions in [nodes], counting stops past [limit]. *)
let rec instrs_until (limit : int) (acc : int) (nodes : Ir.node list) : int =
  match nodes with
  | [] -> acc
  | _ when acc > limit -> acc
  | n :: rest ->
      let acc =
        match n with
        | Ir.Block is -> acc + List.length is
        | Ir.If { cond = ci, _; then_; else_ } ->
            instrs_until limit
              (instrs_until limit (acc + List.length ci) then_)
              else_
        | Ir.Loop l ->
            instrs_until limit
              (acc + List.length (fst l.Ir.l_init)
              + List.length (fst l.Ir.l_bound))
              l.Ir.l_body
        | Ir.WhileLoop { w_cond = ci, _; w_body } ->
            instrs_until limit (acc + List.length ci) w_body
        | Ir.Return (Some (ci, _)) -> acc + List.length ci
        | Ir.Return None | Ir.BreakN | Ir.ContinueN -> acc
      in
      instrs_until limit acc rest

let memo_worthy (l : Ir.loop) : bool =
  instrs_until memo_max_instrs 0 l.Ir.l_body <= memo_max_instrs

let loop_key (ctx : ctx) (l : Ir.loop) : string =
  (* [No_sharing] is safe (the IR is a tree, no cycles) and skips the
     sharing table, which is most of Marshal's cost on small values *)
  ctx.key_prefix
  ^ Marshal.to_string
      ( l.Ir.l_var, l.Ir.l_init, l.Ir.l_bound, l.Ir.l_cmp, l.Ir.l_step,
        l.Ir.l_trip_hint, l.Ir.l_body )
      [ Marshal.No_sharing ]

(* ------------------------------------------------------------------ *)
(* Recursive cost of a node tree                                        *)
(* ------------------------------------------------------------------ *)

(** Straight-line cost (cycles) of an instruction list outside any loop:
    throughput-bound only. *)
let straightline_cost (ctx : ctx) (instrs : Ir.instr list) : float =
  let res = new_resources () in
  let fp = footprint ctx instrs in
  List.iter (account ctx.tgt res ~fp) instrs;
  let t = ctx.tgt in
  max (res.uops /. t.Target.issue_width)
    (max (res.uops_load /. t.Target.load_ports)
       (res.bytes /. bandwidth_for t fp))

(** Dynamic trip count fallback when bounds are not static. *)
let default_trip = 64

let rec cost_nodes (ctx : ctx) (nodes : Ir.node list) : float =
  List.fold_left (fun acc n -> acc +. cost_node ctx n) 0.0 nodes

and cost_node (ctx : ctx) (node : Ir.node) : float =
  match node with
  | Ir.Block is -> straightline_cost ctx is
  | Ir.If { cond = ci, _; then_; else_ } ->
      (* data-dependent scalar branch: average both sides + misprediction *)
      straightline_cost ctx ci
      +. (0.5 *. (cost_nodes ctx then_ +. cost_nodes ctx else_))
      +. (0.3 *. ctx.tgt.Target.branch_miss_penalty)
  | Ir.Loop l -> cost_loop ctx l
  | Ir.WhileLoop { w_cond = ci, _; w_body } ->
      (* unknown iteration count: use the default estimate *)
      float_of_int default_trip
      *. (straightline_cost ctx ci +. cost_nodes ctx w_body
          +. (ctx.tgt.Target.loop_overhead_uops /. ctx.tgt.Target.issue_width))
  | Ir.Return (Some (ci, _)) -> straightline_cost ctx ci
  | Ir.Return None | Ir.BreakN | Ir.ContinueN -> 0.0

and cost_loop (ctx : ctx) (l : Ir.loop) : float =
  if ctx.use_memo && memo_worthy l then cost_loop_memo ctx l
  else cost_loop_fresh ctx l

and cost_loop_memo (ctx : ctx) (l : Ir.loop) : float =
  Memo.find_or_add memo (loop_key ctx l) (fun () -> cost_loop_fresh ctx l)

and cost_loop_fresh (ctx : ctx) (l : Ir.loop) : float =
  let t = ctx.tgt in
  let trip =
    match l.Ir.l_trip_hint with
    | Some n -> n
    | None -> (
        match Analysis.Loopinfo.static_trip_count l with
        | Some n -> n
        | None -> default_trip)
  in
  if trip = 0 then straightline_cost ctx (fst l.Ir.l_init @ fst l.Ir.l_bound)
  else begin
    let body_instrs = Ir.all_instrs l.Ir.l_body in
    let fp, miss_lines = span_footprint ctx l trip body_instrs in
    let carried = Transform_probe.carried_regs l.Ir.l_body in
    let res = new_resources () in
    (* first-def lookup for dependence chains: an indexed table in memo
       mode, the pre-memo linear scan in the legacy reference *)
    let def_of =
      if ctx.use_memo then begin
        let tbl = Hashtbl.create 32 in
        List.iter
          (function
            | Ir.Def (r, rv) ->
                if not (Hashtbl.mem tbl r) then Hashtbl.add tbl r rv
            | _ -> ())
          body_instrs;
        fun r -> Hashtbl.find_opt tbl r
      end
      else
        fun r ->
          List.find_map
            (function Ir.Def (r', rv) when r' = r -> Some rv | _ -> None)
            body_instrs
    in
    res.carried_lat <- chain_bound t ~fp ~def_of carried;
    (* account the body, recursing into control flow *)
    let walk (n : Ir.node) =
      match n with
      | Ir.Block is -> List.iter (account t res ~fp) is
      | Ir.If { cond = ci, _; then_; else_ } ->
          List.iter (account t res ~fp) ci;
          (* halve the branch bodies: taken about half the time *)
          let r2 = new_resources () in
          List.iter
            (fun node ->
              match node with
              | Ir.Block is -> List.iter (account t r2 ~fp) is
              | _ -> res.inner_cycles <- res.inner_cycles +. cost_node ctx node)
            (then_ @ else_);
          res.uops <- res.uops +. (0.5 *. r2.uops) +. 1.0;
          res.uops_int <- res.uops_int +. (0.5 *. r2.uops_int);
          res.uops_fp <- res.uops_fp +. (0.5 *. r2.uops_fp);
          res.uops_load <- res.uops_load +. (0.5 *. r2.uops_load);
          res.uops_store <- res.uops_store +. (0.5 *. r2.uops_store);
          res.bytes <- res.bytes +. (0.5 *. r2.bytes);
          res.branch_cost <-
            res.branch_cost +. (0.3 *. t.Target.branch_miss_penalty)
      | Ir.Loop inner -> res.inner_cycles <- res.inner_cycles +. cost_loop ctx inner
      | Ir.WhileLoop _ | Ir.Return _ | Ir.BreakN | Ir.ContinueN ->
          res.inner_cycles <- res.inner_cycles +. cost_node ctx n
    in
    List.iter walk l.Ir.l_body;
    (* register pressure: spill traffic once the body's live vectors exceed
       the register file *)
    let pressure = vector_pressure t ctx.fn body_instrs ~carried in
    let spill = max 0 (pressure - t.Target.phys_vregs) in
    let spill_uops = float_of_int spill *. t.Target.spill_uops in
    res.uops <- res.uops +. spill_uops;
    res.uops_load <- res.uops_load +. (spill_uops /. 2.0);
    res.uops_store <- res.uops_store +. (spill_uops /. 2.0);
    res.bytes <- res.bytes +. (float_of_int spill *. float_of_int (t.Target.vec_bits / 8));
    let per_iter =
      max
        ((res.uops +. t.Target.loop_overhead_uops) /. t.Target.issue_width)
        (max (res.uops_int /. t.Target.int_ports)
           (max (res.uops_fp /. t.Target.fp_ports)
              (max (res.uops_load /. t.Target.load_ports)
                 (max (res.uops_store /. t.Target.store_ports)
                    (max (res.bytes /. bandwidth_for t fp)
                    (max res.carried_lat
                       (miss_lines *. load_latency_for t fp /. 10.0)))))))
      +. res.branch_cost +. res.inner_cycles
    in
    (* loop setup: init + bound evaluation *)
    let setup = straightline_cost ctx (fst l.Ir.l_init @ fst l.Ir.l_bound) in
    setup +. (float_of_int trip *. per_iter) +. t.Target.branch_miss_penalty
  end

let make_ctx ~(memo : bool) (tgt : Target.t) (m : Ir.modul) (fn : Ir.func) :
    ctx =
  if not memo then { tgt; m; fn; arr_tbl = None; key_prefix = ""; use_memo = false }
  else begin
    let arr_bytes = Hashtbl.create 16 in
    List.iter
      (fun a ->
        Hashtbl.replace arr_bytes a.Ir.arr_name
          (Ir.array_elems a * Ir.scalar_size a.Ir.arr_elem))
      m.Ir.m_arrays;
    { tgt; m; fn; arr_tbl = Some arr_bytes; key_prefix = key_prefix tgt m;
      use_memo = true }
  end

(** Simulated execution time of a function, in cycles.  [memo:false]
    bypasses the per-loop memo (and its key computation) entirely,
    reproducing the pre-memo cost of the model; the returned floats are
    bit-identical either way because loop costing is deterministic. *)
let cycles ?(memo = true) (tgt : Target.t) (m : Ir.modul) (fn : Ir.func) :
    float =
  cost_nodes (make_ctx ~memo tgt m fn) fn.Ir.fn_body

(** Simulated wall-clock seconds. *)
let seconds ?memo (tgt : Target.t) (m : Ir.modul) (fn : Ir.func) : float =
  cycles ?memo tgt m fn /. (tgt.Target.ghz *. 1e9)
