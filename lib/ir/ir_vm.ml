(** A bytecode VM for the IR: the fast execution engine behind always-on
    translation validation.

    {!Ir_interp} is the semantic reference — boxed values, Hashtbl-backed
    memory, exception-driven control flow — and stays that way.  This
    module compiles an [Ir.modul]'s kernel function once into a flat
    [op array]: registers resolved to integer slots in unboxed
    [int array]/[float array] planes (integers as native 63-bit ints with
    a runtime {!Deopt} escape for values a native int cannot represent —
    see the note above [run]), arrays resolved to plane indices,
    branches and loops resolved to jumps, vector operands read lane-wise
    out of preallocated per-register buffers that are reused across
    iterations (the tree walker allocates a fresh array per vector op per
    iteration).

    {b Bit-identity contract.}  A compiled program must be observationally
    identical to the tree walker: exact integer memory, exact float bits
    (same operations in the same order, including F32 rounding and
    narrow-int wrap), traps carrying the same messages and faulting
    addresses, and the same fuel accounting — exactly one [steps] tick per
    executed {!Ir.instr}, ticked before the instruction evaluates, so
    ["step budget exceeded"] fires on the same instruction.  Control-flow
    ops (jumps, loop heads, loop steps) never tick, mirroring the tree
    walker where loop control lives outside [exec_instr].

    The compiler is deliberately conservative: any construct whose slot
    semantics could diverge from the dynamically-typed tree walker — a
    register assigned conflicting shapes, a possibly-undefined vector read
    whose [VI 0L] default behaves differently from a zeroed buffer, a
    width mismatch, an unknown array or builtin — makes {!compile} return
    [None] and the caller falls back to {!Ir_interp}, which is correct by
    definition.  Lowered code never hits these cases in practice; the
    {!fallbacks} counter watches for regressions.

    Compiled code is cached content-addressed ({!load}), so a 35-action
    sweep compiles each transformed module once and the scalar reference
    once. *)

type shape = SInt | SFloat | VInt of int | VFloat of int

(* ------------------------------------------------------------------ *)
(* Operand encodings (coercions baked at compile time)                  *)
(* ------------------------------------------------------------------ *)

(* [as_int]-context operand: immediate, int slot, or float slot read
   through Int64.of_float — exactly the tree walker's coercion.  Integer
   values live in native OCaml ints (the true two's-complement value,
   which must fit 63 bits — the runtime deopts to the tree walker the
   moment an I64 operation would need the 64th bit, see {!Deopt}). *)
type iarg = AIimm of int | AIslot of int | AIfslot of int

type farg = AFimm of float | AFslot of int | AFislot of int

(* vector-int operand: a vector slot, or a scalar splat (as_vec_i) *)
type viarg = ViSlot of int | ViSplat of iarg

type vfarg = VfSlot of int | VfSplat of farg

(* a resolved memory plane: index into the int or float array plane *)
type marg = MemI of int | MemF of int

type op =
  (* instruction-derived ops: each ticks the fuel counter exactly once *)
  | ONop
  | OIBin of int * Ir.ibin * Ir.scalar_ty * iarg * iarg
  | OFBin of int * Ir.fbin * Ir.scalar_ty * farg * farg
  | OICmpS of int * Ir.cmp * iarg * iarg
  | OFCmpS of int * Ir.cmp * farg * farg
  | OSelI of int * iarg * iarg * iarg
  | OSelF of int * iarg * farg * farg
  | OCastII of int * Ir.scalar_ty * iarg  (** dst <- wrap_int sty (fetch) *)
  | OCastFF of int * Ir.scalar_ty * farg  (** dst <- wrap_f sty (fetch) *)
  | OExtractI of int * Ir.scalar_ty * int * int  (** dst, sty, vslot, lane *)
  | OExtractF of int * Ir.scalar_ty * int * int
  | OReduceI of int * Ir.reduce_op * Ir.scalar_ty * int
  | OReduceF of int * Ir.reduce_op * Ir.scalar_ty * int
  | OCall1F of int * (float -> float) * farg
  | OCall2F of int * (float -> float -> float) * farg * farg
  | OCallAbs of int * iarg
  | OLoadSI of int * Ir.scalar_ty * int * string * iarg
      (** dst, sty, int-plane idx, array name (trap messages), index *)
  | OLoadSF of int * Ir.scalar_ty * int * string * iarg
  | OLoadSIM of int * Ir.scalar_ty * int * string * iarg * iarg  (** + mask *)
  | OLoadSFM of int * Ir.scalar_ty * int * string * iarg * iarg
  | OStoreSI of Ir.scalar_ty * int * string * iarg * iarg
  | OStoreSF of Ir.scalar_ty * int * string * iarg * farg
  | OStoreSIM of Ir.scalar_ty * int * string * iarg * iarg * iarg
  | OStoreSFM of Ir.scalar_ty * int * string * iarg * farg * iarg
  | OLoadVI of int * Ir.scalar_ty * marg * string * iarg * int * viarg option
      (** dstv, sty, plane, name, base index, stride, mask *)
  | OLoadVF of int * Ir.scalar_ty * marg * string * iarg * int * viarg option
  | OStoreVI of Ir.scalar_ty * marg * string * iarg * int * int * viarg * viarg option
      (** sty, plane, name, base index, stride, width, src lanes, mask *)
  | OStoreVF of Ir.scalar_ty * marg * string * iarg * int * int * vfarg * viarg option
  | OIBinV of int * Ir.ibin * Ir.scalar_ty * viarg * viarg
  | OFBinV of int * Ir.fbin * Ir.scalar_ty * vfarg * vfarg
  | OICmpV of int * Ir.cmp * viarg * viarg
  | OFCmpV of int * Ir.cmp * vfarg * vfarg
  | OSelVI of int * viarg * viarg * viarg
  | OSelVF of int * viarg * vfarg * vfarg
  | OCastVII of int * Ir.scalar_ty * viarg  (** lane-wise wrap_int *)
  | OCastVIF of int * Ir.scalar_ty * vfarg  (** FpToSi lanes *)
  | OCastVFI of int * Ir.scalar_ty * viarg  (** SiToFp lanes *)
  | OCastVFF of int * Ir.scalar_ty * vfarg  (** lane-wise wrap_f *)
  | OSplatVI of int * Ir.scalar_ty * iarg  (** wrap once, fill *)
  | OSplatVF of int * farg  (** Splat semantics: no wrap on float fill *)
  | OMovVF of int * Ir.scalar_ty * farg  (** Mov semantics: wrap_f fill *)
  | OCopyVI of int * int
  | OCopyVF of int * int
  | OStrideV of int * Ir.scalar_ty * iarg * int
  (* control ops: never tick *)
  | OSetI of int * iarg
      (** raw un-ticked int move — the loop protocol's [set_reg l_var]
          and bound coercion, which live outside [exec_instr] in the
          tree walker and so never count against the fuel budget *)
  | OJmp of int
  | OJz of iarg * int  (** jump when the fetched condition is zero *)
  | OLoopHead of int * Ir.cmp * int * int  (** lvar slot, cmp, bound slot, exit pc *)
  | OLoopStep of int * Ir.scalar_ty * int * int  (** lvar slot, sty, step, head pc *)
  | ORetNone
  | ORetI of iarg
  | ORetF of farg
  | ORetVI of int
  | ORetVF of int

type program = {
  p_ops : op array;
  p_nints : int;
  p_nflts : int;
  p_wveci : int array;  (** width of each int vector slot *)
  p_wvecf : int array;
  p_params : (bool * int * int) list;  (** is_float, slot, param position *)
  p_arrays : (string * bool) array;  (** binding order; bool = float plane *)
}

type outcome = { o_result : Ir_interp.rvalue_v option; o_steps : int }

(* ------------------------------------------------------------------ *)
(* Compilation                                                          *)
(* ------------------------------------------------------------------ *)

exception Unsupported
(* internal: some construct's slot semantics could diverge from the tree
   walker; the whole function falls back to Ir_interp *)

(* Growable op buffer with backpatching *)
type buf = { mutable ops : op array; mutable len : int }

let emit (b : buf) (op : op) : int =
  if b.len >= Array.length b.ops then begin
    let bigger = Array.make (2 * Array.length b.ops) ONop in
    Array.blit b.ops 0 bigger 0 b.len;
    b.ops <- bigger
  end;
  b.ops.(b.len) <- op;
  b.len <- b.len + 1;
  b.len - 1

let patch (b : buf) (i : int) (op : op) : unit = b.ops.(i) <- op

type loop_frame = { mutable brks : int list; mutable conts : int list }

type cstate = {
  fn : Ir.func;
  shapes : shape array;
  slot_of : int array;  (* reg -> slot within its shape's plane *)
  mutable nints : int;
  mutable nflts : int;
  mutable wveci : int list;  (* reversed widths *)
  mutable wvecf : int list;
  arr_tbl : (string, bool * int) Hashtbl.t;  (* name -> (is_float, plane idx) *)
  b : buf;
  da : bool array;  (* definite assignment, for Extract/Reduce sources *)
  mutable frames : loop_frame list;
}

(* ---- shape inference (fixpoint over all assignments) ---- *)

let join (a : shape option) (b : shape) : shape option =
  match a with
  | None -> Some b
  | Some a -> if a = b then Some a else raise Unsupported

let value_shape (shapes : shape option array) (v : Ir.value) : shape option =
  match v with
  | Ir.IConst _ -> Some SInt
  | Ir.FConst _ -> Some SFloat
  | Ir.Reg r -> shapes.(r)

let is_f1 = function
  | "sqrt" | "sqrtf" | "fabs" | "fabsf" | "exp" | "log" | "sin" | "cos"
  | "floor" | "ceil" ->
      true
  | _ -> false

let is_f2 = function "pow" | "fmax" | "fmin" -> true | _ -> false

let rvalue_shape (m : Ir.modul) (shapes : shape option array)
    (rv : Ir.rvalue) : shape option =
  let open Ir in
  let of_ty = function
    | Scalar s -> if is_float_scalar s then SFloat else SInt
    | Vec (n, s) -> if is_float_scalar s then VFloat n else VInt n
  in
  match rv with
  | IBin (_, ty, _, _) | ICmp (_, ty, _, _) -> (
      (* ICmp's ty is the operand type; the result is integral either way *)
      match ty with Scalar _ -> Some SInt | Vec (n, _) -> Some (VInt n))
  | FCmp (_, ty, _, _) -> (
      match ty with Scalar _ -> Some SInt | Vec (n, _) -> Some (VInt n))
  | FBin (_, ty, _, _) -> (
      match ty with Scalar _ -> Some SFloat | Vec (n, _) -> Some (VFloat n))
  | Select (ty, _, _, _) -> Some (of_ty ty)
  | Cast (k, _, to_, v) -> (
      let float_result =
        match k with
        | SiToFp | FpExt | FpTrunc -> true
        | ZExt | SExt | Trunc | FpToSi -> false
      in
      match value_shape shapes v with
      | None -> None
      | Some (SInt | SFloat) -> (
          (* scalar input: a vector-typed cast broadcasts to the target
             width; a scalar-typed cast stays scalar *)
          match to_ with
          | Scalar _ -> Some (if float_result then SFloat else SInt)
          | Vec (n, _) -> Some (if float_result then VFloat n else VInt n))
      | Some (VInt w | VFloat w) ->
          (* vector input: lanes map one-to-one; the result keeps the
             INPUT width (the tree walker never width-checks casts) *)
          Some (if float_result then VFloat w else VInt w))
  | Load (ty, mref) -> (
      match find_array m mref.base with
      | None -> raise Unsupported
      | Some a -> (
          let arr_float = is_float_scalar a.arr_elem in
          match ty with
          | Scalar s ->
              (* scalar loads dispatch on the ARRAY kind; a masked load's
                 masked-off default uses the instruction kind, so the two
                 must agree for the dest shape to be static *)
              (match mref.mask with
              | Some _ when is_float_scalar s <> arr_float ->
                  raise Unsupported
              | _ -> ());
              Some (if arr_float then SFloat else SInt)
          | Vec (n, s) ->
              (* vector loads coerce each lane to the INSTRUCTION kind *)
              Some (if is_float_scalar s then VFloat n else VInt n)))
  | Splat (ty, v) -> (
      match ty with
      | Scalar _ -> value_shape shapes v  (* passthrough *)
      | Vec (n, s) -> Some (if is_float_scalar s then VFloat n else VInt n))
  | Extract (_, v, _) -> (
      match value_shape shapes v with
      | None -> None
      | Some (VInt _) -> Some SInt
      | Some (VFloat _) -> Some SFloat
      | Some (SInt | SFloat) -> raise Unsupported)
  | Reduce (_, _, v) -> (
      match value_shape shapes v with
      | None -> None
      | Some (VInt _) -> Some SInt
      | Some (VFloat _) -> Some SFloat
      | Some (SInt | SFloat) -> raise Unsupported)
  | Mov (ty, v) -> (
      match value_shape shapes v with
      | None -> None
      | Some ((VInt _ | VFloat _) as s) -> Some s  (* passthrough *)
      | Some ((SInt | SFloat) as sc) -> (
          match ty with
          | Scalar _ -> Some sc
          | Vec (n, _) -> Some (if sc = SFloat then VFloat n else VInt n)))
  | Stride (ty, v, _) -> (
      match ty with
      | Scalar _ -> value_shape shapes v
      | Vec (n, s) ->
          if is_float_scalar s then raise Unsupported else Some (VInt n))

let infer_shapes (m : Ir.modul) (fn : Ir.func) : shape array =
  let shapes : shape option array = Array.make (max 1 fn.Ir.fn_nregs) None in
  List.iter
    (fun (_, r, sty) ->
      shapes.(r) <-
        join shapes.(r) (if Ir.is_float_scalar sty then SFloat else SInt))
    fn.Ir.fn_params;
  (* loop vars: the loop protocol stores VI (wrap ...) every iteration *)
  Ir.iter_loops (fun l -> shapes.(l.Ir.l_var) <- join shapes.(l.Ir.l_var) SInt)
    fn.Ir.fn_body;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= fn.Ir.fn_nregs + 2 do
    changed := false;
    incr rounds;
    Ir.fold_instrs
      (fun () i ->
        match i with
        | Ir.Def (r, rv) -> (
            match rvalue_shape m shapes rv with
            | None -> ()
            | Some s ->
                let j = join shapes.(r) s in
                if j <> shapes.(r) then begin
                  shapes.(r) <- j;
                  changed := true
                end)
        | Ir.CallI (Some r, name, _) ->
            let s = if name = "abs" then SInt else SFloat in
            let j = join shapes.(r) s in
            if j <> shapes.(r) then begin
              shapes.(r) <- j;
              changed := true
            end
        | Ir.CallI (None, _, _) | Ir.Store _ -> ())
      () fn.Ir.fn_body;
    (* loop init values are stored raw into the loop var *)
    Ir.iter_loops
      (fun l ->
        let _, iv = l.Ir.l_init in
        match value_shape shapes iv with
        | None -> ()
        | Some s ->
            let j = join shapes.(l.Ir.l_var) s in
            if j <> shapes.(l.Ir.l_var) then begin
              shapes.(l.Ir.l_var) <- j;
              changed := true
            end)
      fn.Ir.fn_body
  done;
  (* a register never assigned always holds the tree walker's VI 0L: an
     SInt slot zeroed at run start behaves identically in every context
     the compiler accepts *)
  Array.map (function Some s -> s | None -> SInt) shapes

(* ---- operand compilation ---- *)

(* The runtime's integer planes hold native OCaml ints carrying the true
   64-bit value; a literal that needs the 64th bit cannot keep that
   invariant, so the module falls back to the tree walker. *)
let imm_of (i : int64) : int =
  let n = Int64.to_int i in
  if Int64.of_int n <> i then raise Unsupported;
  n

let iarg_of (c : cstate) (v : Ir.value) : iarg =
  match v with
  | Ir.IConst i -> AIimm (imm_of i)
  | Ir.FConst f -> AIimm (imm_of (Int64.of_float f))
  | Ir.Reg r -> (
      match c.shapes.(r) with
      | SInt -> AIslot c.slot_of.(r)
      | SFloat -> AIfslot c.slot_of.(r)
      | VInt _ | VFloat _ -> raise Unsupported)

let farg_of (c : cstate) (v : Ir.value) : farg =
  match v with
  | Ir.IConst i -> AFimm (Int64.to_float i)
  | Ir.FConst f -> AFimm f
  | Ir.Reg r -> (
      match c.shapes.(r) with
      | SFloat -> AFslot c.slot_of.(r)
      | SInt -> AFislot c.slot_of.(r)
      | VInt _ | VFloat _ -> raise Unsupported)

let viarg_of (c : cstate) (n : int) (v : Ir.value) : viarg =
  match v with
  | Ir.IConst i -> ViSplat (AIimm (imm_of i))
  | Ir.FConst _ -> raise Unsupported  (* as_vec_i of VF always traps *)
  | Ir.Reg r -> (
      match c.shapes.(r) with
      | VInt w -> if w <> n then raise Unsupported else ViSlot c.slot_of.(r)
      | SInt -> ViSplat (AIslot c.slot_of.(r))
      | SFloat | VFloat _ -> raise Unsupported)

let vfarg_of (c : cstate) (n : int) (v : Ir.value) : vfarg =
  match v with
  | Ir.IConst i -> VfSplat (AFimm (Int64.to_float i))
  | Ir.FConst f -> VfSplat (AFimm f)
  | Ir.Reg r -> (
      match c.shapes.(r) with
      | VFloat w -> if w <> n then raise Unsupported else VfSlot c.slot_of.(r)
      | SFloat -> VfSplat (AFslot c.slot_of.(r))
      | SInt -> VfSplat (AFislot c.slot_of.(r))
      | VInt _ -> raise Unsupported)

let fresh_int (c : cstate) : int =
  let s = c.nints in
  c.nints <- s + 1;
  s

let fresh_flt (c : cstate) : int =
  let s = c.nflts in
  c.nflts <- s + 1;
  s

let vec_width (c : cstate) (r : Ir.reg) : int =
  match c.shapes.(r) with
  | VInt w | VFloat w -> w
  | SInt | SFloat -> raise Unsupported

let arr_of (c : cstate) (base : string) : bool * int =
  match Hashtbl.find_opt c.arr_tbl base with
  | Some x -> x
  | None -> raise Unsupported  (* unknown array: let the tree walker trap *)

(* the only vector source whose undefined-read behavior differs from a
   zeroed buffer: Extract/Reduce of an undefined register sees the tree
   walker's VI 0L and traps "from scalar"; require definite assignment *)
let da_vec_src (c : cstate) (v : Ir.value) : int =
  match v with
  | Ir.Reg r when c.da.(r) -> c.slot_of.(r)
  | _ -> raise Unsupported

let builtin_fn1 = function
  | "sqrt" | "sqrtf" -> sqrt
  | "fabs" | "fabsf" -> abs_float
  | "exp" -> exp
  | "log" -> fun x -> if x <= 0.0 then 0.0 else log x
  | "sin" -> sin
  | "cos" -> cos
  | "floor" -> floor
  | "ceil" -> ceil
  | _ -> raise Unsupported

let builtin_fn2 = function
  | "pow" -> ( ** )
  | "fmax" -> fun (a : float) b -> Stdlib.max a b
  | "fmin" -> fun (a : float) b -> Stdlib.min a b
  | _ -> raise Unsupported

let emit_def (c : cstate) (r : Ir.reg) (rv : Ir.rvalue) : unit =
  let open Ir in
  let d = c.slot_of.(r) in
  let op =
    match rv with
    | IBin (op, Scalar s, a, b) -> OIBin (d, op, s, iarg_of c a, iarg_of c b)
    | IBin (op, Vec (n, s), a, b) ->
        OIBinV (d, op, s, viarg_of c n a, viarg_of c n b)
    | FBin (op, Scalar s, a, b) -> OFBin (d, op, s, farg_of c a, farg_of c b)
    | FBin (op, Vec (n, s), a, b) ->
        OFBinV (d, op, s, vfarg_of c n a, vfarg_of c n b)
    | ICmp (op, Scalar _, a, b) -> OICmpS (d, op, iarg_of c a, iarg_of c b)
    | ICmp (op, Vec (n, _), a, b) ->
        OICmpV (d, op, viarg_of c n a, viarg_of c n b)
    | FCmp (op, Scalar _, a, b) -> OFCmpS (d, op, farg_of c a, farg_of c b)
    | FCmp (op, Vec (n, _), a, b) ->
        OFCmpV (d, op, vfarg_of c n a, vfarg_of c n b)
    | Select (Scalar s, cnd, a, b) ->
        if is_float_scalar s then
          OSelF (d, iarg_of c cnd, farg_of c a, farg_of c b)
        else OSelI (d, iarg_of c cnd, iarg_of c a, iarg_of c b)
    | Select (Vec (n, s), cnd, a, b) ->
        if is_float_scalar s then
          OSelVF (d, viarg_of c n cnd, vfarg_of c n a, vfarg_of c n b)
        else OSelVI (d, viarg_of c n cnd, viarg_of c n a, viarg_of c n b)
    | Cast (k, _, to_, v) -> (
        let sty = elem_ty to_ in
        let in_shape =
          match v with
          | IConst _ -> SInt
          | FConst _ -> SFloat
          | Reg r -> c.shapes.(r)
        in
        (* kind-mismatched casts trap when the input is defined but not
           when it is the tree walker's undefined VI 0L, so only the
           statically-clean combinations compile; the rest fall back *)
        match (k, in_shape) with
        | (ZExt | SExt | Trunc), SInt -> (
            match to_ with
            | Scalar _ -> OCastII (d, sty, iarg_of c v)
            | Vec (_, _) -> OCastVII (d, sty, ViSplat (iarg_of c v)))
        | SiToFp, SInt -> (
            match to_ with
            | Scalar _ -> OCastFF (d, sty, farg_of c v)
            | Vec (_, _) -> OCastVFF (d, sty, VfSplat (farg_of c v)))
        | (FpExt | FpTrunc), SFloat -> (
            match to_ with
            | Scalar _ -> OCastFF (d, sty, farg_of c v)
            | Vec (_, _) -> OCastVFF (d, sty, VfSplat (farg_of c v)))
        | FpToSi, SFloat -> (
            match to_ with
            | Scalar _ -> OCastII (d, sty, iarg_of c v)
            | Vec (_, _) -> OCastVII (d, sty, ViSplat (iarg_of c v)))
        | (ZExt | SExt | Trunc), VInt w -> OCastVII (d, sty, viarg_of c w v)
        | SiToFp, VInt w -> OCastVFI (d, sty, viarg_of c w v)
        | (FpExt | FpTrunc), VFloat w -> OCastVFF (d, sty, vfarg_of c w v)
        | FpToSi, VFloat w -> OCastVIF (d, sty, vfarg_of c w v)
        | _ -> raise Unsupported)
    | Load (ty, mref) -> (
        let arr_float, plane = arr_of c mref.base in
        let idx = iarg_of c mref.index in
        match ty with
        | Scalar s -> (
            match mref.mask with
            | None ->
                if arr_float then OLoadSF (d, s, plane, mref.base, idx)
                else OLoadSI (d, s, plane, mref.base, idx)
            | Some mv ->
                (* shape inference already required instr kind = array kind *)
                let mk = iarg_of c mv in
                if arr_float then OLoadSFM (d, s, plane, mref.base, idx, mk)
                else OLoadSIM (d, s, plane, mref.base, idx, mk))
        | Vec (n, s) ->
            let mask = Option.map (viarg_of c n) mref.mask in
            let ma = if arr_float then MemF plane else MemI plane in
            if is_float_scalar s then
              OLoadVF (d, s, ma, mref.base, idx, mref.stride, mask)
            else OLoadVI (d, s, ma, mref.base, idx, mref.stride, mask))
    | Splat (Scalar _, v) -> (
        (* passthrough: eval_value with no coercion *)
        match v with
        | IConst i -> OCastII (d, I64, AIimm (imm_of i))
        | FConst f -> OCastFF (d, F64, AFimm f)
        | Reg r -> (
            match c.shapes.(r) with
            | SInt -> OCastII (d, I64, AIslot c.slot_of.(r))
            | SFloat -> OCastFF (d, F64, AFslot c.slot_of.(r))
            | VInt _ -> OCopyVI (d, c.slot_of.(r))
            | VFloat _ -> OCopyVF (d, c.slot_of.(r))))
    | Splat (Vec (_, s), v) ->
        if is_float_scalar s then OSplatVF (d, farg_of c v)
        else OSplatVI (d, s, iarg_of c v)
    | Extract (s, v, lane) -> (
        let src = da_vec_src c v in
        match v with
        | Reg r -> (
            let w = vec_width c r in
            if lane >= w then raise Unsupported;
            match c.shapes.(r) with
            | VInt _ -> OExtractI (d, s, src, lane)
            | VFloat _ -> OExtractF (d, s, src, lane)
            | _ -> raise Unsupported)
        | _ -> raise Unsupported)
    | Reduce (op, s, v) -> (
        let src = da_vec_src c v in
        match v with
        | Reg r -> (
            match c.shapes.(r) with
            | VInt _ -> OReduceI (d, op, s, src)
            | VFloat _ -> OReduceF (d, op, s, src)
            | _ -> raise Unsupported)
        | _ -> raise Unsupported)
    | Mov (ty, v) -> (
        let in_shape =
          match v with
          | IConst _ -> SInt
          | FConst _ -> SFloat
          | Reg r -> c.shapes.(r)
        in
        match (ty, in_shape) with
        | Scalar s, SInt -> OCastII (d, s, iarg_of c v)
        | Scalar s, SFloat -> OCastFF (d, s, farg_of c v)
        | Vec (_, s), SInt -> OSplatVI (d, s, iarg_of c v)
        | Vec (_, s), SFloat -> OMovVF (d, s, farg_of c v)
        | _, VInt _ -> OCopyVI (d, c.slot_of.(match v with Reg r -> r | _ -> assert false))
        | _, VFloat _ -> OCopyVF (d, c.slot_of.(match v with Reg r -> r | _ -> assert false)))
    | Stride (Scalar _, v, _) -> (
        (* scalar Stride is an eval_value passthrough, like scalar Splat *)
        match v with
        | IConst i -> OCastII (d, I64, AIimm (imm_of i))
        | FConst f -> OCastFF (d, F64, AFimm f)
        | Reg r -> (
            match c.shapes.(r) with
            | SInt -> OCastII (d, I64, AIslot c.slot_of.(r))
            | SFloat -> OCastFF (d, F64, AFslot c.slot_of.(r))
            | VInt _ -> OCopyVI (d, c.slot_of.(r))
            | VFloat _ -> OCopyVF (d, c.slot_of.(r))))
    | Stride (Vec (_, s), v, step) ->
        if is_float_scalar s then raise Unsupported
        else OStrideV (d, s, iarg_of c v, step)
  in
  ignore (emit c.b op)

let emit_instr (c : cstate) (i : Ir.instr) : unit =
  let open Ir in
  (match i with
  | Def (r, rv) ->
      emit_def c r rv;
      c.da.(r) <- true
  | Store (ty, mref, v) -> (
      let arr_float, plane = arr_of c mref.base in
      let idx = iarg_of c mref.index in
      match ty with
      | Scalar s ->
          (* the stored value is coerced by the ARRAY kind *)
          let op =
            match (arr_float, mref.mask) with
            | false, None -> OStoreSI (s, plane, mref.base, idx, iarg_of c v)
            | true, None -> OStoreSF (s, plane, mref.base, idx, farg_of c v)
            | false, Some mv ->
                OStoreSIM (s, plane, mref.base, idx, iarg_of c v, iarg_of c mv)
            | true, Some mv ->
                OStoreSFM (s, plane, mref.base, idx, farg_of c v, iarg_of c mv)
          in
          ignore (emit c.b op)
      | Vec (n, s) ->
          (* the source is coerced by the INSTRUCTION kind, each lane then
             stored by the array kind *)
          let mask = Option.map (viarg_of c n) mref.mask in
          let ma = if arr_float then MemF plane else MemI plane in
          let op =
            if is_float_scalar s then
              OStoreVF (s, ma, mref.base, idx, mref.stride, n, vfarg_of c n v, mask)
            else
              OStoreVI (s, ma, mref.base, idx, mref.stride, n, viarg_of c n v, mask)
          in
          ignore (emit c.b op))
  | CallI (ro, name, args) ->
      let dst_f () =
        match ro with Some r -> c.slot_of.(r) | None -> fresh_flt c
      in
      let op =
        if is_f1 name then
          match args with
          | [ a ] -> OCall1F (dst_f (), builtin_fn1 name, farg_of c a)
          | _ -> raise Unsupported  (* arity trap: fall back *)
        else if is_f2 name then
          match args with
          | [ a; b ] -> OCall2F (dst_f (), builtin_fn2 name, farg_of c a, farg_of c b)
          | _ -> raise Unsupported
        else if name = "abs" then
          match args with
          | [ a ] -> (
              match ro with
              | Some r -> OCallAbs (c.slot_of.(r), iarg_of c a)
              | None -> OCallAbs (fresh_int c, iarg_of c a))
          | _ -> raise Unsupported
        else raise Unsupported  (* unknown builtin traps: fall back *)
      in
      ignore (emit c.b op);
      match ro with Some r -> c.da.(r) <- true | None -> ())

let rec emit_node (c : cstate) (node : Ir.node) : unit =
  let open Ir in
  match node with
  | Block is -> List.iter (emit_instr c) is
  | If { cond = ci, cv; then_; else_ } ->
      List.iter (emit_instr c) ci;
      let jz = emit c.b (OJz (iarg_of c cv, -1)) in
      let da0 = Array.copy c.da in
      List.iter (emit_node c) then_;
      let da_then = Array.copy c.da in
      Array.blit da0 0 c.da 0 (Array.length da0);
      if else_ = [] then begin
        patch c.b jz (OJz (iarg_of c cv, c.b.len))
        (* after an else-less If only the pre-state is definite *)
      end
      else begin
        let jend = emit c.b (OJmp (-1)) in
        patch c.b jz (OJz (iarg_of c cv, c.b.len));
        List.iter (emit_node c) else_;
        patch c.b jend (OJmp c.b.len);
        (* definite after = definite on both paths *)
        Array.iteri (fun i v -> c.da.(i) <- v && da_then.(i)) c.da
      end
  | Loop l ->
      let ii, iv = l.l_init and bi, bv = l.l_bound in
      List.iter (emit_instr c) ii;
      let lv = c.slot_of.(l.l_var) in
      (* set_reg l_var init_v stores the raw value; the loop var's shape
         is SInt (joined with the init value's shape), so a plain copy *)
      ignore (emit c.b (OSetI (lv, iarg_of c iv)));
      c.da.(l.l_var) <- true;
      List.iter (emit_instr c) bi;
      let bt = fresh_int c in
      ignore (emit c.b (OSetI (bt, iarg_of c bv)));
      let sty =
        match Ir.reg_ty c.fn l.l_var with Scalar s -> s | Vec _ -> I64
      in
      let head = emit c.b (OLoopHead (lv, l.l_cmp, bt, -1)) in
      let fr = { brks = []; conts = [] } in
      c.frames <- fr :: c.frames;
      let da0 = Array.copy c.da in
      List.iter (emit_node c) l.l_body;
      c.frames <- List.tl c.frames;
      let step = emit c.b (OLoopStep (lv, sty, l.l_step, head)) in
      let exit_ = c.b.len in
      patch c.b head (OLoopHead (lv, l.l_cmp, bt, exit_));
      List.iter (fun j -> patch c.b j (OJmp exit_)) fr.brks;
      List.iter (fun j -> patch c.b j (OJmp step)) fr.conts;
      (* the body may run zero times *)
      Array.blit da0 0 c.da 0 (Array.length da0)
  | WhileLoop { w_cond = ci, cv; w_body } ->
      let head = c.b.len in
      List.iter (emit_instr c) ci;
      let jz = emit c.b (OJz (iarg_of c cv, -1)) in
      let fr = { brks = []; conts = [] } in
      c.frames <- fr :: c.frames;
      let da0 = Array.copy c.da in
      List.iter (emit_node c) w_body;
      c.frames <- List.tl c.frames;
      ignore (emit c.b (OJmp head));
      let exit_ = c.b.len in
      patch c.b jz (OJz (iarg_of c cv, exit_));
      List.iter (fun j -> patch c.b j (OJmp exit_)) fr.brks;
      List.iter (fun j -> patch c.b j (OJmp head)) fr.conts;
      Array.blit da0 0 c.da 0 (Array.length da0)
  | Return None -> ignore (emit c.b ORetNone)
  | Return (Some (ci, v)) ->
      List.iter (emit_instr c) ci;
      (* Option.map exec_code: the result is the RAW final value *)
      let op =
        match v with
        | IConst i -> ORetI (AIimm (imm_of i))
        | FConst f -> ORetF (AFimm f)
        | Reg r -> (
            match c.shapes.(r) with
            | SInt -> ORetI (AIslot c.slot_of.(r))
            | SFloat -> ORetF (AFslot c.slot_of.(r))
            | VInt _ -> ORetVI c.slot_of.(r)
            | VFloat _ -> ORetVF c.slot_of.(r))
      in
      ignore (emit c.b op)
  | BreakN -> (
      match c.frames with
      | fr :: _ -> fr.brks <- emit c.b (OJmp (-1)) :: fr.brks
      | [] -> raise Unsupported  (* Break_exc would escape run_func *))
  | ContinueN -> (
      match c.frames with
      | fr :: _ -> fr.conts <- emit c.b (OJmp (-1)) :: fr.conts
      | [] -> raise Unsupported)

let compile_fn (m : Ir.modul) (fn : Ir.func) : program =
  let shapes = infer_shapes m fn in
  let slot_of = Array.make (max 1 fn.Ir.fn_nregs) 0 in
  let nints = ref 0 and nflts = ref 0 in
  let wveci = ref [] and wvecf = ref [] in
  let nveci = ref 0 and nvecf = ref 0 in
  Array.iteri
    (fun r sh ->
      match sh with
      | SInt ->
          slot_of.(r) <- !nints;
          incr nints
      | SFloat ->
          slot_of.(r) <- !nflts;
          incr nflts
      | VInt w ->
          slot_of.(r) <- !nveci;
          incr nveci;
          wveci := w :: !wveci
      | VFloat w ->
          slot_of.(r) <- !nvecf;
          incr nvecf;
          wvecf := w :: !wvecf)
    (Array.sub shapes 0 fn.Ir.fn_nregs);
  let arr_tbl = Hashtbl.create 8 in
  let arrays = ref [] in
  let ni = ref 0 and nf = ref 0 in
  List.iter
    (fun a ->
      let isf = Ir.is_float_scalar a.Ir.arr_elem in
      let plane = if isf then !nf else !ni in
      if isf then incr nf else incr ni;
      Hashtbl.replace arr_tbl a.Ir.arr_name (isf, plane);
      arrays := (a.Ir.arr_name, isf) :: !arrays)
    m.Ir.m_arrays;
  let c =
    { fn; shapes; slot_of; nints = !nints; nflts = !nflts;
      wveci = List.rev !wveci; wvecf = List.rev !wvecf; arr_tbl;
      b = { ops = Array.make 64 ONop; len = 0 };
      da = Array.make (max 1 fn.Ir.fn_nregs) false; frames = [] }
  in
  List.iter (fun (_, r, _) -> c.da.(r) <- true) fn.Ir.fn_params;
  List.iter (emit_node c) fn.Ir.fn_body;
  ignore (emit c.b ORetNone);
  let params =
    List.mapi
      (fun i (_, r, sty) -> (Ir.is_float_scalar sty, c.slot_of.(r), i))
      fn.Ir.fn_params
  in
  { p_ops = Array.sub c.b.ops 0 c.b.len;
    p_nints = c.nints;
    p_nflts = c.nflts;
    p_wveci = Array.of_list c.wveci;
    p_wvecf = Array.of_list c.wvecf;
    p_params = params;
    p_arrays = Array.of_list (List.rev !arrays) }

let compile (m : Ir.modul) ~(kernel : string) : program option =
  match List.find_opt (fun f -> f.Ir.fn_name = kernel) m.Ir.m_funcs with
  | None -> None
  | Some fn -> ( try Some (compile_fn m fn) with Unsupported -> None)

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

(** Successful bytecode compilations, modules the compiler declined (they
    run on the tree walker), instructions the VM executed (fuel ticks),
    and runs abandoned to the tree walker mid-flight. *)
let compiles = Counter.make "vm.compiles"
let fallbacks = Counter.make "vm.fallbacks"
let vm_steps = Counter.make "vm.steps"
let deopts = Counter.make "vm.deopts"

(* the content-addressed compiled-code cache; see {!load} *)
let code_cache : program option Memo.t =
  Memo.create ~name:"vm-code"
    ~cap:(Memo.cap_of_env "NEUROVEC_VM_CAP" ~default:4096)

(** {!vm_steps} as a record, the shape [perfbench/wl_serve.ml] reads;
    everything else reads the counters. *)
type vm_stats = { vs_steps : int }

let stats () : vm_stats = { vs_steps = Counter.get vm_steps }

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let trap fmt = Printf.ksprintf (fun s -> raise (Ir_interp.Trap s)) fmt

exception Deopt
(** The run cannot keep the native-int invariant: an I64 operation's true
    result needs the 64th bit, which OCaml's 63-bit int cannot hold.
    Abandon the VM and re-execute on the tree walker from a fresh state —
    memory bound to {!run} may have been partially mutated. *)

let deopt () =
  Counter.incr deopts;
  raise Deopt

(* ---- native-int semantics ----

   The integer register and vector planes hold the TRUE two's-complement
   value of every IR integer in a native OCaml int (63 bits), which is
   what makes the VM allocation-free on the integer path.  For results
   wrapped to <= 32 bits this is trivially exact: +, -, *, << and the
   bitwise ops are ring homomorphisms, so computing mod 2^63 instead of
   mod 2^64 is invisible after truncation (2^32 divides both).  For I64
   (and the float stys, whose wrap_int is the identity) the raw value
   itself is observable — stored to int64 memory, compared, returned — so
   every such operation checks that its true result fits 63 bits and
   {!deopt}s otherwise.  Division, remainder, min/max, compares, and
   arithmetic shifts right are exact on true values by construction. *)

let[@inline always] wide (sty : Ir.scalar_ty) : bool =
  match sty with
  | Ir.I64 | Ir.F32 | Ir.F64 -> true
  | Ir.I1 | Ir.I8 | Ir.I16 | Ir.I32 -> false

(* native wrap_int: sign-extend the low bits (OCaml ints are 63-bit) *)
let[@inline always] wrap_n (sty : Ir.scalar_ty) (v : int) : int =
  match sty with
  | Ir.I1 -> v land 1
  | Ir.I8 -> (v lsl 55) asr 55
  | Ir.I16 -> (v lsl 47) asr 47
  | Ir.I32 -> (v lsl 31) asr 31
  | Ir.I64 | Ir.F32 | Ir.F64 -> v

let[@inline always] to_int_checked (x : int64) : int =
  let n = Int64.to_int x in
  if Int64.of_int n <> x then deopt ();
  n

(* the tree walker's as_int on a float: Int64.of_float, then the result
   must be representable to keep the true-value invariant *)
let[@inline always] of_float_checked (f : float) : int =
  if f <> f || f >= 4.611686018427387904e18 || f < -4.611686018427387904e18
  then deopt ();
  int_of_float f

(* an int64 loaded from memory, coerced by [sty] exactly like wrap_int *)
let load_int (sty : Ir.scalar_ty) (x : int64) : int =
  match sty with
  | Ir.I64 | Ir.F32 | Ir.F64 -> to_int_checked x
  | _ -> wrap_n sty (Int64.to_int x)

(* ibin_eval on true values; [w] marks a result observed raw (wrap is the
   identity), where overflow past 63 bits must deopt instead of wrapping
   mod 2^63.  Narrow results need no checks: they are truncated below. *)
let[@inline always] ibin_n (op : Ir.ibin) (w : bool) (a : int) (b : int) : int =
  match op with
  | Ir.Add ->
      let r = a + b in
      if w && (r lxor a) land (r lxor b) < 0 then deopt ();
      r
  | Ir.Sub ->
      let r = a - b in
      if w && (a lxor b) land (r lxor a) < 0 then deopt ();
      r
  | Ir.Mul ->
      let r = a * b in
      if w then
        if a = -1 then (if b = min_int then deopt ())
        else if a <> 0 && r / a <> b then deopt ();
      r
  | Ir.SDiv ->
      if b = 0 then 0
      else if a = min_int && b = -1 then deopt ()
      else a / b
  | Ir.SRem -> if b = 0 || b = -1 then 0 else a mod b
  | Ir.Shl ->
      let s = b land 63 in
      if w then
        if s > 62 then (if a <> 0 then deopt () else 0)
        else begin
          let r = a lsl s in
          if r asr s <> a then deopt ();
          r
        end
      else if s > 62 then 0
      else a lsl s
  | Ir.AShr ->
      let s = b land 63 in
      a asr (if s > 62 then 62 else s)
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b

let[@inline always] cmp_n (op : Ir.cmp) (a : int) (b : int) : int =
  let r =
    match op with
    | Ir.CLt -> a < b
    | Ir.CLe -> a <= b
    | Ir.CGt -> a > b
    | Ir.CGe -> a >= b
    | Ir.CEq -> a = b
    | Ir.CNe -> a <> b
  in
  if r then 1 else 0

(* same-unit copies of {!Ir_interp.wrap_float}/[fbin_eval]: classic-mode
   ocamlopt only reliably inlines same-unit direct calls, and inlining is
   what lets cmmgen keep the float (and the F32 round's int32
   intermediate) unboxed through the op arms.  The arithmetic is the tree
   walker's, operation for operation, so bit-identity is by
   construction. *)
let[@inline always] wrap_f (sty : Ir.scalar_ty) (f : float) : float =
  match sty with
  | Ir.F32 -> Int32.float_of_bits (Int32.bits_of_float f)
  | _ -> f

let[@inline always] fbin_n (op : Ir.fbin) (a : float) (b : float) : float =
  match op with
  | Ir.FAdd -> a +. b
  | Ir.FSub -> a -. b
  | Ir.FMul -> a *. b
  | Ir.FDiv -> a /. b

let[@inline always] cmp_fn (op : Ir.cmp) (a : float) (b : float) : int =
  let r =
    match op with
    | Ir.CLt -> a < b
    | Ir.CLe -> a <= b
    | Ir.CGt -> a > b
    | Ir.CGe -> a >= b
    | Ir.CEq -> a = b
    | Ir.CNe -> a <> b
  in
  if r then 1 else 0

let run (p : program) ~(mem : (string * Ir_interp.mem) list)
    ?(max_steps = 200_000_000) () : outcome =
  (* bind the caller's arrays (mutated in place, exactly like the tree
     walker's state) to the kind-separated planes the ops index *)
  let ni = ref 0 and nf = ref 0 in
  Array.iter (fun (_, isf) -> if isf then incr nf else incr ni) p.p_arrays;
  (* Integer memory executes on native-int shadow planes: an [int64 array]
     element is a boxed pointer in OCaml, so running loads/stores directly
     against the caller's arrays would allocate on every store.  We convert
     once on entry (deopting, before any mutation, on a cell a native int
     cannot represent), run allocation-free, and copy back into the
     caller's arrays in the [finally] below — so the observable memory
     image, including partial mutation at a trap, matches the tree walker
     cell for cell. *)
  let origs_i = Array.make (max 1 !ni) [||] in
  let mems_i = Array.make (max 1 !ni) [||] in
  let mems_f = Array.make (max 1 !nf) [||] in
  let ii = ref 0 and fi = ref 0 in
  Array.iter
    (fun (name, isf) ->
      match List.assoc_opt name mem with
      | Some (Ir_interp.MI a) when not isf ->
          origs_i.(!ii) <- a;
          mems_i.(!ii) <- Array.map to_int_checked a;
          incr ii
      | Some (Ir_interp.MF a) when isf ->
          mems_f.(!fi) <- a;
          incr fi
      | _ -> invalid_arg ("Ir_vm.run: missing or mismatched array " ^ name))
    p.p_arrays;
  (* which int planes any op can store to: read-only inputs skip the
     write-back pass entirely *)
  let stored_i = Array.make (max 1 !ni) false in
  Array.iter
    (function
      | OStoreSI (_, pl, _, _, _) | OStoreSIM (_, pl, _, _, _, _)
      | OStoreVI (_, MemI pl, _, _, _, _, _, _)
      | OStoreVF (_, MemI pl, _, _, _, _, _, _) ->
          stored_i.(pl) <- true
      | _ -> ())
    p.p_ops;
  (* register planes, zeroed: an undefined register reads as the tree
     walker's VI 0L under every compiled coercion *)
  let ints = Array.make (max 1 p.p_nints) 0 in
  let flts = Array.make (max 1 p.p_nflts) 0.0 in
  let veci = Array.map (fun w -> Array.make w 0) p.p_wveci in
  let vecf = Array.map (fun w -> Array.make w 0.0) p.p_wvecf in
  List.iter
    (fun (isf, slot, i) ->
      if isf then flts.(slot) <- 1.5 else ints.(slot) <- (i + 2) * 3)
    p.p_params;
  let[@inline always] geti = function
    | AIimm i -> i
    | AIslot s -> Array.unsafe_get ints s
    | AIfslot s -> of_float_checked (Array.unsafe_get flts s)
  in
  let[@inline always] getf = function
    | AFimm f -> f
    | AFslot s -> Array.unsafe_get flts s
    | AFislot s -> float_of_int (Array.unsafe_get ints s)
  in
  (* per-lane operand reads: no closure allocation in the hot loop *)
  let[@inline always] vi_get v k =
    match v with
    | ViSlot s -> Array.unsafe_get (Array.unsafe_get veci s) k
    | ViSplat x -> geti x
  in
  let[@inline always] vf_get v k =
    match v with
    | VfSlot s -> Array.unsafe_get (Array.unsafe_get vecf s) k
    | VfSplat x -> getf x
  in
  let[@inline always] m_get m k = match m with None -> 1 | Some v -> vi_get v k in
  let steps = ref 0 in
  let[@inline always] tick () =
    incr steps;
    if !steps > max_steps then trap "step budget exceeded"
  in
  let ops = p.p_ops in
  (* tail-recursive dispatch: [pc] lives in a register instead of a ref
     cell, saving a load+store per executed instruction *)
  let rec exec (pc : int) : Ir_interp.rvalue_v option =
    match Array.unsafe_get ops pc with
      | ONop ->
          tick ();
          exec (pc + 1)
      | OIBin (d, op, sty, a, b) ->
          tick ();
          Array.unsafe_set ints d
            (wrap_n sty (ibin_n op (wide sty) (geti a) (geti b)));
          exec (pc + 1)
      | OFBin (d, op, sty, a, b) ->
          tick ();
          Array.unsafe_set flts d
            (wrap_f sty (fbin_n op (getf a) (getf b)));
          exec (pc + 1)
      | OICmpS (d, op, a, b) ->
          tick ();
          Array.unsafe_set ints d (cmp_n op (geti a) (geti b));
          exec (pc + 1)
      | OFCmpS (d, op, a, b) ->
          tick ();
          Array.unsafe_set ints d (cmp_fn op (getf a) (getf b));
          exec (pc + 1)
      | OSelI (d, c, a, b) ->
          tick ();
          Array.unsafe_set ints d (geti (if geti c <> 0 then a else b));
          exec (pc + 1)
      | OSelF (d, c, a, b) ->
          tick ();
          Array.unsafe_set flts d (getf (if geti c <> 0 then a else b));
          exec (pc + 1)
      | OCastII (d, sty, a) ->
          tick ();
          Array.unsafe_set ints d (wrap_n sty (geti a));
          exec (pc + 1)
      | OCastFF (d, sty, a) ->
          tick ();
          Array.unsafe_set flts d (wrap_f sty (getf a));
          exec (pc + 1)
      | OExtractI (d, s, v, lane) ->
          tick ();
          Array.unsafe_set ints d (wrap_n s (Array.unsafe_get veci.(v) lane));
          exec (pc + 1)
      | OExtractF (d, s, v, lane) ->
          tick ();
          Array.unsafe_set flts d
            (wrap_f s (Array.unsafe_get vecf.(v) lane));
          exec (pc + 1)
      | OReduceI (d, op, s, v) ->
          tick ();
          let a = veci.(v) in
          let w = wide s in
          let acc = ref a.(0) in
          for k = 1 to Array.length a - 1 do
            let x = Array.unsafe_get a k in
            acc :=
              (match op with
              | Ir.RAdd ->
                  let r = !acc + x in
                  if w && (r lxor !acc) land (r lxor x) < 0 then deopt ();
                  r
              | Ir.RMul ->
                  let r = !acc * x in
                  if w then
                    if !acc = -1 then (if x = min_int then deopt ())
                    else if !acc <> 0 && r / !acc <> x then deopt ();
                  r
              | Ir.RMin -> Stdlib.min !acc x
              | Ir.RMax -> Stdlib.max !acc x
              | Ir.RAnd -> !acc land x
              | Ir.ROr -> !acc lor x
              | Ir.RXor -> !acc lxor x)
          done;
          Array.unsafe_set ints d (wrap_n s !acc);
          exec (pc + 1)
      | OReduceF (d, op, s, v) ->
          tick ();
          let a = vecf.(v) in
          (* F32 reductions round pairwise like the scalar loop would *)
          let acc = ref a.(0) in
          for k = 1 to Array.length a - 1 do
            let x = Array.unsafe_get a k in
            let r =
              match op with
              | Ir.RAdd -> !acc +. x
              | Ir.RMul -> !acc *. x
              | Ir.RMin -> Stdlib.min !acc x
              | Ir.RMax -> Stdlib.max !acc x
              | Ir.RAnd | Ir.ROr | Ir.RXor ->
                  trap "bitwise reduce on float vector"
            in
            acc := wrap_f s r
          done;
          Array.unsafe_set flts d !acc;
          exec (pc + 1)
      | OCall1F (d, f, a) ->
          tick ();
          Array.unsafe_set flts d (f (getf a));
          exec (pc + 1)
      | OCall2F (d, f, a, b) ->
          tick ();
          Array.unsafe_set flts d (f (getf a) (getf b));
          exec (pc + 1)
      | OCallAbs (d, a) ->
          tick ();
          let v = geti a in
          if v = min_int then deopt ();
          Array.unsafe_set ints d (abs v);
          exec (pc + 1)
      | OLoadSI (d, sty, pl, name, idx) ->
          tick ();
          let a = Array.unsafe_get mems_i pl in
          let i = geti idx in
          if i < 0 || i >= Array.length a then
            trap "out-of-bounds load %s[%d] (size %d)" name i (Array.length a);
          Array.unsafe_set ints d (wrap_n sty (Array.unsafe_get a i));
          exec (pc + 1)
      | OLoadSF (d, sty, pl, name, idx) ->
          tick ();
          let a = Array.unsafe_get mems_f pl in
          let i = geti idx in
          if i < 0 || i >= Array.length a then
            trap "out-of-bounds load %s[%d] (size %d)" name i (Array.length a);
          Array.unsafe_set flts d (wrap_f sty (Array.unsafe_get a i));
          exec (pc + 1)
      | OLoadSIM (d, sty, pl, name, idx, mk) ->
          tick ();
          if geti mk = 0 then Array.unsafe_set ints d 0
          else begin
            let a = Array.unsafe_get mems_i pl in
            let i = geti idx in
            if i < 0 || i >= Array.length a then
              trap "out-of-bounds load %s[%d] (size %d)" name i
                (Array.length a);
            Array.unsafe_set ints d (wrap_n sty (Array.unsafe_get a i))
          end;
          exec (pc + 1)
      | OLoadSFM (d, sty, pl, name, idx, mk) ->
          tick ();
          if geti mk = 0 then Array.unsafe_set flts d 0.0
          else begin
            let a = Array.unsafe_get mems_f pl in
            let i = geti idx in
            if i < 0 || i >= Array.length a then
              trap "out-of-bounds load %s[%d] (size %d)" name i
                (Array.length a);
            Array.unsafe_set flts d (wrap_f sty (Array.unsafe_get a i))
          end;
          exec (pc + 1)
      | OStoreSI (sty, pl, name, idx, v) ->
          tick ();
          let a = Array.unsafe_get mems_i pl in
          let i = geti idx in
          if i < 0 || i >= Array.length a then
            trap "out-of-bounds store %s[%d] (size %d)" name i (Array.length a);
          Array.unsafe_set a i (wrap_n sty (geti v));
          exec (pc + 1)
      | OStoreSF (sty, pl, name, idx, v) ->
          tick ();
          let a = Array.unsafe_get mems_f pl in
          let i = geti idx in
          if i < 0 || i >= Array.length a then
            trap "out-of-bounds store %s[%d] (size %d)" name i (Array.length a);
          Array.unsafe_set a i (wrap_f sty (getf v));
          exec (pc + 1)
      | OStoreSIM (sty, pl, name, idx, v, mk) ->
          tick ();
          if geti mk <> 0 then begin
            let a = Array.unsafe_get mems_i pl in
            let i = geti idx in
            if i < 0 || i >= Array.length a then
              trap "out-of-bounds store %s[%d] (size %d)" name i
                (Array.length a);
            Array.unsafe_set a i (wrap_n sty (geti v))
          end;
          exec (pc + 1)
      | OStoreSFM (sty, pl, name, idx, v, mk) ->
          tick ();
          if geti mk <> 0 then begin
            let a = Array.unsafe_get mems_f pl in
            let i = geti idx in
            if i < 0 || i >= Array.length a then
              trap "out-of-bounds store %s[%d] (size %d)" name i
                (Array.length a);
            Array.unsafe_set a i (wrap_f sty (getf v))
          end;
          exec (pc + 1)
      | OLoadVI (d, sty, ma, name, idx, stride, mask) ->
          tick ();
          let dv = veci.(d) in
          let n = Array.length dv in
          let base = geti idx in
          (match ma with
          | MemI pl ->
              let a = Array.unsafe_get mems_i pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds load %s[%d] (size %d)" name i len;
                  Array.unsafe_set dv k (wrap_n sty (Array.unsafe_get a i))
                end
                else Array.unsafe_set dv k 0
              done
          | MemF pl ->
              let a = Array.unsafe_get mems_f pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds load %s[%d] (size %d)" name i len;
                  Array.unsafe_set dv k
                    (of_float_checked (wrap_f sty (Array.unsafe_get a i)))
                end
                else Array.unsafe_set dv k 0
              done);
          exec (pc + 1)
      | OLoadVF (d, sty, ma, name, idx, stride, mask) ->
          tick ();
          let dv = vecf.(d) in
          let n = Array.length dv in
          let base = geti idx in
          (match ma with
          | MemF pl ->
              let a = Array.unsafe_get mems_f pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds load %s[%d] (size %d)" name i len;
                  Array.unsafe_set dv k (wrap_f sty (Array.unsafe_get a i))
                end
                else Array.unsafe_set dv k 0.0
              done
          | MemI pl ->
              let a = Array.unsafe_get mems_i pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds load %s[%d] (size %d)" name i len;
                  Array.unsafe_set dv k
                    (float_of_int (wrap_n sty (Array.unsafe_get a i)))
                end
                else Array.unsafe_set dv k 0.0
              done);
          exec (pc + 1)
      | OStoreVI (sty, ma, name, idx, stride, n, src, mask) ->
          tick ();
          let base = geti idx in
          (match ma with
          | MemI pl ->
              let a = Array.unsafe_get mems_i pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds store %s[%d] (size %d)" name i len;
                  Array.unsafe_set a i (wrap_n sty (vi_get src k))
                end
              done
          | MemF pl ->
              let a = Array.unsafe_get mems_f pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds store %s[%d] (size %d)" name i len;
                  Array.unsafe_set a i
                    (wrap_f sty (float_of_int (vi_get src k)))
                end
              done);
          exec (pc + 1)
      | OStoreVF (sty, ma, name, idx, stride, n, src, mask) ->
          tick ();
          let base = geti idx in
          (match ma with
          | MemF pl ->
              let a = Array.unsafe_get mems_f pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds store %s[%d] (size %d)" name i len;
                  Array.unsafe_set a i (wrap_f sty (vf_get src k))
                end
              done
          | MemI pl ->
              let a = Array.unsafe_get mems_i pl in
              let len = Array.length a in
              for k = 0 to n - 1 do
                if m_get mask k <> 0 then begin
                  let i = base + (k * stride) in
                  if i < 0 || i >= len then
                    trap "out-of-bounds store %s[%d] (size %d)" name i len;
                  Array.unsafe_set a i
                    (wrap_n sty (of_float_checked (vf_get src k)))
                end
              done);
          exec (pc + 1)
      | OIBinV (d, op, sty, a, b) ->
          tick ();
          let dv = veci.(d) in
          let w = wide sty in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k
              (wrap_n sty (ibin_n op w (vi_get a k) (vi_get b k)))
          done;
          exec (pc + 1)
      | OFBinV (d, op, sty, a, b) ->
          tick ();
          let dv = vecf.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k
              (wrap_f sty (fbin_n op (vf_get a k) (vf_get b k)))
          done;
          exec (pc + 1)
      | OICmpV (d, op, a, b) ->
          tick ();
          let dv = veci.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (cmp_n op (vi_get a k) (vi_get b k))
          done;
          exec (pc + 1)
      | OFCmpV (d, op, a, b) ->
          tick ();
          let dv = veci.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (cmp_fn op (vf_get a k) (vf_get b k))
          done;
          exec (pc + 1)
      | OSelVI (d, c, a, b) ->
          tick ();
          let dv = veci.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k
              (if vi_get c k <> 0 then vi_get a k else vi_get b k)
          done;
          exec (pc + 1)
      | OSelVF (d, c, a, b) ->
          tick ();
          let dv = vecf.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k
              (if vi_get c k <> 0 then vf_get a k else vf_get b k)
          done;
          exec (pc + 1)
      | OCastVII (d, sty, a) ->
          tick ();
          let dv = veci.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (wrap_n sty (vi_get a k))
          done;
          exec (pc + 1)
      | OCastVIF (d, sty, a) ->
          tick ();
          let dv = veci.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (wrap_n sty (of_float_checked (vf_get a k)))
          done;
          exec (pc + 1)
      | OCastVFI (d, sty, a) ->
          tick ();
          let dv = vecf.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (wrap_f sty (float_of_int (vi_get a k)))
          done;
          exec (pc + 1)
      | OCastVFF (d, sty, a) ->
          tick ();
          let dv = vecf.(d) in
          for k = 0 to Array.length dv - 1 do
            Array.unsafe_set dv k (wrap_f sty (vf_get a k))
          done;
          exec (pc + 1)
      | OSplatVI (d, sty, x) ->
          tick ();
          let dv = veci.(d) in
          Array.fill dv 0 (Array.length dv) (wrap_n sty (geti x));
          exec (pc + 1)
      | OSplatVF (d, x) ->
          tick ();
          let dv = vecf.(d) in
          Array.fill dv 0 (Array.length dv) (getf x);
          exec (pc + 1)
      | OMovVF (d, sty, x) ->
          tick ();
          let dv = vecf.(d) in
          Array.fill dv 0 (Array.length dv) (wrap_f sty (getf x));
          exec (pc + 1)
      | OCopyVI (d, s) ->
          tick ();
          let dv = veci.(d) and sv = veci.(s) in
          Array.blit sv 0 dv 0 (Array.length dv);
          exec (pc + 1)
      | OCopyVF (d, s) ->
          tick ();
          let dv = vecf.(d) and sv = vecf.(s) in
          Array.blit sv 0 dv 0 (Array.length dv);
          exec (pc + 1)
      | OStrideV (d, sty, x, step) ->
          tick ();
          let dv = veci.(d) in
          let base = geti x in
          let w = wide sty in
          for k = 0 to Array.length dv - 1 do
            let o = k * step in
            let r = base + o in
            if w && (r lxor base) land (r lxor o) < 0 then deopt ();
            Array.unsafe_set dv k (wrap_n sty r)
          done;
          exec (pc + 1)
      | OSetI (d, a) ->
          Array.unsafe_set ints d (geti a);
          exec (pc + 1)
      | OJmp t -> exec t
      | OJz (c, t) -> if geti c = 0 then exec t else exec (pc + 1)
      | OLoopHead (lv, cmp, bt, exit_) ->
          if
            cmp_n cmp (Array.unsafe_get ints lv) (Array.unsafe_get ints bt)
            = 0
          then exec exit_
          else exec (pc + 1)
      | OLoopStep (lv, sty, step, head) ->
          let a = Array.unsafe_get ints lv in
          let r = a + step in
          if wide sty && (r lxor a) land (r lxor step) < 0 then deopt ();
          Array.unsafe_set ints lv (wrap_n sty r);
          exec head
      | ORetNone ->
          None
      | ORetI a ->
          Some (Ir_interp.VI (Int64.of_int (geti a)))
      | ORetF a ->
          Some (Ir_interp.VF (getf a))
      | ORetVI s ->
          Some (Ir_interp.VVI (Array.map Int64.of_int veci.(s)))
      | ORetVF s ->
          Some (Ir_interp.VVF (Array.copy vecf.(s)))
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Array.iteri
          (fun j plane ->
            if Array.unsafe_get stored_i j then begin
              let orig = origs_i.(j) in
              Array.iteri (fun k v -> orig.(k) <- Int64.of_int v) plane
            end)
          mems_i;
        Counter.add vm_steps !steps)
      (fun () -> exec 0)
  in
  { o_result = result; o_steps = !steps }

(* ------------------------------------------------------------------ *)
(* Content-addressed compiled-code cache                                *)
(* ------------------------------------------------------------------ *)

(** Compile [kernel] of [m], content-addressed by [key] in the [vm-code]
    {!Memo} table ([NEUROVEC_VM_CAP] entries).  The caller must guarantee
    [key] uniquely identifies the module's semantics (the verify keys do:
    they digest source, plan, and pass pipeline); compilation is a pure
    function of the module, so a [--jobs N] sweep caches exactly what a
    [--jobs 1] sweep does.  Returns [None] when the module is outside the
    compiler's bit-exact subset — run {!Ir_interp} instead.  [None] is
    cached too, so a declined module is not recompiled on every
    verdict. *)
let load ~(key : string) (m : Ir.modul) ~(kernel : string) : program option =
  Memo.find_or_add code_cache key (fun () ->
      let prog = compile m ~kernel in
      (match prog with
      | Some _ -> Counter.incr compiles
      | None -> Counter.incr fallbacks);
      prog)
