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
    bounds when available (always, in the benchmark corpus). What a
    loop's bounds need to know about its registers — the carried set,
    the chain latencies, the vector live ranges — comes from one walk
    over the body's instructions ({!summarize}).

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
  mutable branch_cost : float;
  mutable inner_cycles : float;  (** total cycles of nested loops *)
}

let new_resources () =
  { uops = 0.0; uops_int = 0.0; uops_fp = 0.0; uops_load = 0.0;
    uops_store = 0.0; bytes = 0.0; carried_lat = 0.0;
    branch_cost = 0.0; inner_cycles = 0.0 }

(** Number of [vec_bits]-wide physical operations a value of type [ty]
    occupies. *)
let chunks (tgt : Target.t) (ty : Ir.ty) : int =
  match ty with
  | Ir.Scalar _ -> 1
  | Ir.Vec (n, s) ->
      max 1 ((n * Ir.scalar_size s * 8 + tgt.Target.vec_bits - 1) / tgt.Target.vec_bits)

(** Per-register facts about the loop body being walked ({!span_footprint}
    and then {!summarize}), indexed by register and at least as long as
    the function's register count.  Between walks every entry is at rest
    — no definition, no use, no value, no flags — because each walk puts
    back exactly the registers it touched. *)
type scratch = {
  first_def : int array;  (** index of the register's first [Def], or -1 *)
  first_rv : Ir.rvalue array;  (** that [Def]'s rvalue, when there is one *)
  last_use : int array;  (** index of the register's last read *)
  sval : Analysis.Scev.sval array;
      (** the register's affine value so far, when [valued_bit] is set *)
  flags : Bytes.t;  (** the register's [*_bit]s below *)
  touched : int array;  (** the registers flagged so far, to put back *)
  mutable n_touched : int;
}

let touched_bit = 1
let defined_bit = 2  (* by a [Def] or a [CallI] earlier in the body *)
let read_early_bit = 4  (* read while not yet defined *)
let region_def_bit = 8  (* by a [Def] or a [CallI] anywhere in the body *)
let valued_bit = 16  (* [sval] holds the register's affine value *)

let new_scratch (nregs : int) : scratch =
  { first_def = Array.make nregs (-1);
    first_rv = Array.make nregs (Ir.Mov (Ir.Scalar Ir.I64, Ir.IConst 0L));
    last_use = Array.make nregs (-1);
    sval = Array.make nregs Analysis.Scev.Unknown;
    flags = Bytes.make nregs '\000'; touched = Array.make nregs 0;
    n_touched = 0 }

(** The per-module constants of costing: the target, each array's size
    and the per-loop memo keys' prefix ({!key_prefix}).  They depend only
    on the target and the module's arrays, which vectorizing and LICM
    never change and {!Ir.copy_modul} shares, so one value serves every
    module derived from one pre-vectorization artifact. *)
type consts = {
  c_tgt : Target.t;
  c_arr_bytes : (string, int) Hashtbl.t;  (** array name -> total bytes *)
  c_key_prefix : string;
}

(** Costing context: the per-module constants and the enclosing
    function, with the scratch its loops are summarized on. *)
type ctx = {
  tgt : Target.t;
  fn : Ir.func;
  arr_bytes : (string, int) Hashtbl.t;  (** array name -> total bytes *)
  key_prefix : string;
      (** target + array shapes, shared by every per-loop memo key of
          this module *)
  scratch : scratch;
}

(** Total bytes of array [base], [default] when unknown. *)
let array_bytes (ctx : ctx) ~(default : int) (base : string) : int =
  match Hashtbl.find ctx.arr_bytes base with
  | n -> n
  | exception Not_found -> default

(** Memory footprint (bytes) of the arrays a set of instructions touch,
    each counted at its first access.  Straight-line blocks are short,
    so rescanning the accesses before each one costs less than building
    a table of the bases seen. *)
let footprint (ctx : ctx) (instrs : Ir.instr list) : int =
  (* does an access in [l], before the cell [stop], name [b]? *)
  let rec named_before b (l : Ir.instr list) (stop : Ir.instr list) =
    l != stop
    &&
    match l with
    | (Ir.Def (_, Ir.Load (_, mr)) | Ir.Store (_, mr, _)) :: _
      when String.equal mr.Ir.base b ->
        true
    | _ :: rest -> named_before b rest stop
    | [] -> false
  in
  let rec sum acc (l : Ir.instr list) =
    match l with
    | [] -> acc
    | (Ir.Def (_, Ir.Load (_, mr)) | Ir.Store (_, mr, _)) :: rest ->
        let b = mr.Ir.base in
        sum
          (if named_before b instrs l then acc
           else acc + array_bytes ctx ~default:0 b)
          rest
    | _ :: rest -> sum acc rest
  in
  sum 0 instrs

let bandwidth_for (tgt : Target.t) (fp : int) : float =
  if fp <= tgt.Target.l1_bytes then tgt.Target.bw_l1
  else if fp <= tgt.Target.l2_bytes then tgt.Target.bw_l2
  else tgt.Target.bw_mem

let load_latency_for (tgt : Target.t) (fp : int) : float =
  if fp <= tgt.Target.l1_bytes then tgt.Target.lat_load_l1
  else if fp <= tgt.Target.l2_bytes then tgt.Target.lat_load_l2
  else tgt.Target.lat_load_mem

(* [n] uops into [res], [n] of them on the integer ports *)
let int_uops (res : resources) (n : float) : unit =
  res.uops <- res.uops +. n;
  res.uops_int <- res.uops_int +. n

(* [n] uops into [res], [n] of them on the FP ports *)
let fp_uops (res : resources) (n : float) : unit =
  res.uops <- res.uops +. n;
  res.uops_fp <- res.uops_fp +. n

(** Account one memory access of type [ty] into [res]: its uops on the
    load or store ports and the bytes it moves.  A vector access with
    unit stride moves whole chunks (one more uop when masked); any other
    stride is a gather/scatter, one access per lane, and each lane may
    pull its own cache line. *)
let account_access (tgt : Target.t) (res : resources) ~(store : bool)
    (ty : Ir.ty) (mr : Ir.mem_ref) : unit =
  let lanes = Ir.width ty in
  let esz = Ir.scalar_size (Ir.elem_ty ty) in
  let u =
    if lanes = 1 then 1.0
    else if abs mr.Ir.stride = 1 then
      let c = float_of_int (chunks tgt ty) in
      if mr.Ir.mask <> None then c +. 1.0 else c
    else float_of_int lanes
  in
  let b =
    if lanes = 1 then float_of_int esz
    else if abs mr.Ir.stride = 1 then float_of_int (lanes * esz)
    else float_of_int (lanes * min (abs mr.Ir.stride * esz) 64)
  in
  res.uops <- res.uops +. u;
  if store then res.uops_store <- res.uops_store +. u
  else res.uops_load <- res.uops_load +. u;
  res.bytes <- res.bytes +. b

(** Account one instruction into [res], allocating nothing.  Each port
    class only ever grows by non-negative amounts from [+0.0], so the
    zero terms a class does not receive are left out without changing a
    bit. *)
let account (tgt : Target.t) (res : resources) (i : Ir.instr) : unit =
  match i with
  | Ir.Def (_, rv) -> (
      match rv with
      | Ir.IBin (op, ty, _, _) ->
          let c = float_of_int (chunks tgt ty) in
          let extra =
            match op with Ir.SDiv | Ir.SRem -> c *. 6.0 | _ -> 0.0
          in
          int_uops res (c +. extra)
      | Ir.FBin (op, ty, _, _) ->
          let c = float_of_int (chunks tgt ty) in
          let extra =
            match op with Ir.FDiv -> c *. 6.0 | _ -> 0.0
          in
          fp_uops res (c +. extra)
      | Ir.ICmp (_, ty, _, _) | Ir.FCmp (_, ty, _, _) | Ir.Select (ty, _, _, _)
        ->
          int_uops res (float_of_int (chunks tgt ty))
      | Ir.Cast (_, _, to_, _) -> int_uops res (float_of_int (chunks tgt to_))
      | Ir.Load (ty, mr) -> account_access tgt res ~store:false ty mr
      | Ir.Splat (Ir.Scalar _, _) | Ir.Stride (Ir.Scalar _, _, _) ->
          (* scalar splat/stride are no-ops *)
          ()
      | Ir.Splat (ty, _) | Ir.Stride (ty, _, _) ->
          int_uops res (float_of_int (chunks tgt ty))
      | Ir.Extract _ -> int_uops res 1.0
      | Ir.Reduce (_, _, _) ->
          (* log2(width) shuffles+ops; charge a small constant *)
          int_uops res 3.0
      | Ir.Mov _ ->
          (* register moves are renamed away *)
          ())
  | Ir.Store (ty, mr, _) -> account_access tgt res ~store:true ty mr
  | Ir.CallI _ ->
      res.uops <- res.uops +. 15.0;
      res.uops_fp <- res.uops_fp +. 10.0

let read_value (f : Ir.reg -> unit) (v : Ir.value) : unit =
  match v with Ir.Reg r -> f r | Ir.IConst _ | Ir.FConst _ -> ()

let read_mask f (m : Ir.mem_ref) : unit =
  match m.Ir.mask with Some v -> read_value f v | None -> ()

let rec read_values f (vs : Ir.value list) : unit =
  match vs with
  | [] -> ()
  | v :: rest ->
      read_value f v;
      read_values f rest

(* [f r] on each register [r] that [i] reads, allocating nothing *)
let iter_reads (f : Ir.reg -> unit) (i : Ir.instr) : unit =
  match i with
  | Ir.Def (_, rv) -> (
      match rv with
      | Ir.IBin (_, _, a, b) | Ir.FBin (_, _, a, b) | Ir.ICmp (_, _, a, b)
      | Ir.FCmp (_, _, a, b) ->
          read_value f a;
          read_value f b
      | Ir.Select (_, c, a, b) ->
          read_value f c;
          read_value f a;
          read_value f b
      | Ir.Cast (_, _, _, v) | Ir.Splat (_, v) | Ir.Extract (_, v, _)
      | Ir.Reduce (_, _, v) | Ir.Mov (_, v) | Ir.Stride (_, v, _) ->
          read_value f v
      | Ir.Load (_, m) ->
          read_value f m.Ir.index;
          read_mask f m)
  | Ir.Store (_, m, v) ->
      read_value f m.Ir.index;
      read_value f v;
      read_mask f m
  | Ir.CallI (_, _, args) -> read_values f args

(** What costing needs to know about a loop body's registers. *)
type summary = {
  carried : Ir.reg list;
      (** registers defined in the body but read before their first
          definition (e.g. a reduction accumulator), ascending.  Their
          update latencies form the serial dependence chain that bounds
          how fast iterations can retire. *)
  chain_lat : float;
      (** latency of the slowest loop-carried dependence chain: for each
          carried register, the latency of the operation that produces
          its new value (looking through movs).  Chains are independent
          of each other, so the bound is the max, not the sum — this is
          why interleaving hides latency. *)
  vreg_peak : int;
      (** vector register pressure via linear-scan live ranges: the
          maximum, over program points, of the physical registers
          occupied by simultaneously-live vector values.  Loop-carried
          vectors (accumulators) are live across the whole iteration. *)
}

let flag (s : scratch) (r : Ir.reg) : int = Char.code (Bytes.get s.flags r)

let set_flag (s : scratch) (r : Ir.reg) (f : int) : unit =
  let old = flag s r in
  if old = 0 then begin
    s.touched.(s.n_touched) <- r;
    s.n_touched <- s.n_touched + 1
  end;
  Bytes.set s.flags r (Char.chr (old lor f lor touched_bit))

(** Put the scratch's touched registers back at rest. *)
let forget (s : scratch) : unit =
  for k = 0 to s.n_touched - 1 do
    let r = s.touched.(k) in
    s.first_def.(r) <- -1;
    s.last_use.(r) <- -1;
    s.sval.(r) <- Analysis.Scev.Unknown;
    Bytes.set s.flags r '\000'
  done;
  s.n_touched <- 0

(* [f] on each instruction of [body], in {!Ir.all_instrs} order, without
   building that list *)
let iter_body (f : Ir.instr -> unit) (body : Ir.node list) : unit =
  Ir.fold_instrs (fun () i -> f i) () body

(** Summarize the loop body [body] in one walk over its instructions, on
    the context's per-register scratch.  [fp] is the loop's footprint,
    which prices carried loads. *)
let summarize (ctx : ctx) ~(fp : int) (body : Ir.node list) : summary =
  let s = ctx.scratch and tgt = ctx.tgt in
  let pos = ref 0 in
  let read r =
    if flag s r land defined_bit = 0 then set_flag s r read_early_bit;
    s.last_use.(r) <- !pos
  in
  iter_body
    (fun i ->
      iter_reads read i;
      (match i with
      | Ir.Def (r, rv) ->
          if s.first_def.(r) < 0 then begin
            s.first_def.(r) <- !pos;
            s.first_rv.(r) <- rv
          end;
          set_flag s r defined_bit
      | Ir.CallI (Some r, _, _) -> set_flag s r defined_bit
      | Ir.Store _ | Ir.CallI (None, _, _) -> ());
      incr pos)
    body;
  let n = !pos in
  let is_carried r =
    let f = flag s r in
    f land defined_bit <> 0 && f land read_early_bit <> 0
  in
  let carried =
    let rec collect k acc =
      if k < 0 then acc
      else
        let r = s.touched.(k) in
        collect (k - 1) (if is_carried r then r :: acc else acc)
    in
    List.sort Int.compare (collect (s.n_touched - 1) [])
  in
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
    | Ir.Mov (_, Ir.Reg t) when depth < 4 ->
        if s.first_def.(t) >= 0 then lat_of (depth + 1) s.first_rv.(t)
        else 0.5
    | Ir.Mov _ -> 0.5
  in
  let chain_lat =
    List.fold_left
      (fun acc r ->
        if s.first_def.(r) >= 0 then max acc (lat_of 0 s.first_rv.(r))
        else acc)
      0.0 carried
  in
  (* live ranges of the vector registers the body defines, as +/- deltas
     at their first definition and one past their last use *)
  let deltas = Array.make (n + 1) 0 in
  for k = 0 to s.n_touched - 1 do
    let r = s.touched.(k) in
    let d = s.first_def.(r) in
    if d >= 0 then
      match Ir.reg_ty ctx.fn r with
      | Ir.Vec _ as ty ->
          let c = chunks tgt ty in
          let lo, hi =
            if is_carried r then (0, n - 1) else (d, max s.last_use.(r) d)
          in
          deltas.(lo) <- deltas.(lo) + c;
          deltas.(hi + 1) <- deltas.(hi + 1) - c
      | Ir.Scalar _ -> ()
  done;
  let live = ref 0 and vreg_peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      if !live > !vreg_peak then vreg_peak := !live)
    deltas;
  forget s;
  { carried; chain_lat; vreg_peak = !vreg_peak }

(** Working-set footprint of one loop execution: for each access, the span
    of addresses it sweeps across the loop's [trip] iterations —
    [|stride per iteration| * trip * elem_size], capped by the array size;
    loop-invariant accesses touch one cache line. This is what makes loop
    tiling profitable: a tiled inner loop sweeps a tile-sized span that
    fits in L1 instead of a whole row/column. Non-affine accesses are
    charged the whole array.

    Index values are {!Analysis.Scev}'s, evaluated over the body with
    [l]'s induction variable as the one symbol that varies, on the
    context's per-register scratch: a register read before its
    definition in the body is loop-carried ([Unknown]), and one the body
    never defines is an invariant symbol. *)
let span_footprint (ctx : ctx) (l : Ir.loop) (trip : int) : int * float =
  let tgt = ctx.tgt and s = ctx.scratch in
  let var = l.Ir.l_var in
  iter_body
    (fun i ->
      match i with
      | Ir.Def (r, _) | Ir.CallI (Some r, _, _) -> set_flag s r region_def_bit
      | Ir.Store _ | Ir.CallI (None, _, _) -> ())
    l.Ir.l_body;
  let set_value r sv =
    s.sval.(r) <- sv;
    set_flag s r valued_bit
  in
  set_value var (Analysis.Scev.sym_aff var);
  let lookup r =
    let f = flag s r in
    if f land valued_bit <> 0 then s.sval.(r)
    else if f land region_def_bit <> 0 then Analysis.Scev.Unknown
    else Analysis.Scev.sym_aff r
  in
  let total = ref 0 in
  let lines_per_iter = ref 0.0 in
  let record (ty : Ir.ty) (mr : Ir.mem_ref) =
    let arr_bytes = array_bytes ctx ~default:64 mr.Ir.base in
    let esz = Ir.scalar_size (Ir.elem_ty ty) in
    let lanes = Ir.width ty in
    let sv = Analysis.Scev.eval_value_by lookup mr.Ir.index in
    let span, advance =
      match sv with
      | Analysis.Scev.Unknown -> (arr_bytes, 64)
      | Analysis.Scev.Affine _ ->
          let per_iter = Analysis.Scev.coeff_of var sv * l.Ir.l_step in
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
  iter_body
    (fun i ->
      match i with
      | Ir.Def (r, rv) ->
          (match rv with Ir.Load (ty, mr) -> record ty mr | _ -> ());
          if r <> var then set_value r (Analysis.Scev.eval_rvalue_by lookup rv)
      | Ir.Store (ty, mr, _) -> record ty mr
      | Ir.CallI (Some r, _, _) -> set_value r Analysis.Scev.Unknown
      | Ir.CallI (None, _, _) -> ())
    l.Ir.l_body;
  forget s;
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
   module's array shapes.  [l_id], [l_pragma] and [l_site] are
   deliberately left out: costing never reads them, and keying on them
   would split entries that price identically.  Marshal runs at C speed (a fraction of the
   cost of actually costing the subtree), and the marshaled bytes are the
   table key directly — no second digest pass over them, and, unlike
   keying on the loop structure itself, the table retains flat strings the
   collector marks in O(1) rather than live IR trees it must trace, so a
   long sweep does not drag every transformed loop it ever costed into
   major-heap mark work.  The key's first 16 bytes are the prefix digest,
   which is what {!Memo} shards on. *)

let memo : float Memo.t = Memo.create ~name:"timing" ~cap:16384

(** Digest of the target fields + array shapes: every cost-relevant
    input that is not in the loop serialization, folded to 16 bytes so
    per-loop keys pay for it once, not per byte. *)
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

(** The constants of costing [m]'s functions on [tgt]. *)
let consts (tgt : Target.t) (m : Ir.modul) : consts =
  let arr_bytes = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace arr_bytes a.Ir.arr_name
        (Ir.array_elems a * Ir.scalar_size a.Ir.arr_elem))
    m.Ir.m_arrays;
  { c_tgt = tgt; c_arr_bytes = arr_bytes; c_key_prefix = key_prefix tgt m }

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
  List.iter (account ctx.tgt res) instrs;
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
  if memo_worthy l then cost_loop_memo ctx l else cost_loop_fresh ctx l

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
    let fp, miss_lines = span_footprint ctx l trip in
    (* summarized before the walk below recurses into inner loops, which
       summarize on the same scratch *)
    let sum = summarize ctx ~fp l.Ir.l_body in
    let res = new_resources () in
    res.carried_lat <- sum.chain_lat;
    (* account the body, recursing into control flow *)
    let walk (n : Ir.node) =
      match n with
      | Ir.Block is -> List.iter (account t res) is
      | Ir.If { cond = ci, _; then_; else_ } ->
          List.iter (account t res) ci;
          (* halve the branch bodies: taken about half the time *)
          let r2 = new_resources () in
          List.iter
            (fun node ->
              match node with
              | Ir.Block is -> List.iter (account t r2) is
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
    let spill = max 0 (sum.vreg_peak - t.Target.phys_vregs) in
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

(** A context for costing [fn] under [c], on [scratch] (by default one
    of its own). *)
let make_ctx ?scratch (c : consts) (fn : Ir.func) : ctx =
  let scratch =
    match scratch with Some s -> s | None -> new_scratch fn.Ir.fn_nregs
  in
  { tgt = c.c_tgt; fn; arr_bytes = c.c_arr_bytes;
    key_prefix = c.c_key_prefix; scratch }

(* Each domain keeps one scratch at rest between [cycles_with] calls,
   grown on demand.  A call takes it out of its slot and puts it back
   only when costing returns, so costing that raises leaves nothing
   half-walked behind, and two threads of one domain never share one. *)
let spare : scratch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** Simulated execution time of a function, in cycles, on [c]'s target
    and arrays. *)
let cycles_with (c : consts) (fn : Ir.func) : float =
  let nregs = fn.Ir.fn_nregs in
  let scratch =
    match Domain.DLS.get spare with
    | Some s when Array.length s.first_def >= nregs ->
        Domain.DLS.set spare None;
        s
    | Some s -> new_scratch (max nregs (2 * Array.length s.first_def))
    | None -> new_scratch nregs
  in
  let cycles = cost_nodes (make_ctx ~scratch c fn) fn.Ir.fn_body in
  Domain.DLS.set spare (Some scratch);
  cycles

(** Simulated execution time of a function, in cycles. *)
let cycles (tgt : Target.t) (m : Ir.modul) (fn : Ir.func) : float =
  cycles_with (consts tgt m) fn
