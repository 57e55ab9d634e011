(** A reference interpreter for the IR.

    Two uses: (1) semantic equivalence checks — a vectorized loop must
    compute exactly what the scalar loop computed, which qcheck properties
    exercise on random programs; (2) the machine model drives a timing
    observer through it to derive simulated execution time.

    Narrow integer types wrap (sign-extended); [F32] operations round
    through single precision, so vectorizing float code never changes
    results. Division by zero yields 0 (the benchmark generators never
    divide by zero; the guard keeps random programs total). *)

exception Trap of string

type rvalue_v =
  | VI of int64
  | VF of float
  | VVI of int64 array
  | VVF of float array

type mem = MI of int64 array | MF of float array

type state = {
  m : Ir.modul;
  mem : (string, mem) Hashtbl.t;
  mutable steps : int;
  max_steps : int;
  observer : (Ir.instr -> unit) option;
  loop_enter : (Ir.loop -> unit) option;
  loop_exit : (Ir.loop -> unit) option;
}

exception Break_exc
exception Continue_exc
exception Return_exc of rvalue_v option

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* ------------------------------------------------------------------ *)
(* Deterministic memory initialization                                  *)
(* ------------------------------------------------------------------ *)

(* A small splitmix-style hash so every array element gets a reproducible,
   nonzero-looking value independent of evaluation order. *)
let mix (a : int) (b : int) : int =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  let h = (h lxor (h lsr 13)) * 0xC2B2AE35 in
  (h lxor (h lsr 16)) land 0x3FFFFFFF

let str_hash (s : string) : int =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFF) s;
  !h

(** The fills an array can start from.  Each cell is a pure function of
    (fill, array name, index), so any memory format — this interpreter's
    boxed arrays or {!Ir_vm}'s native planes — reproduces a fill cell for
    cell through {!int_cell} and {!float_cell}. *)
type fill =
  | Zeros  (** every cell zero *)
  | Ramp  (** small signed ramp: cell i = (i mod 7) - 3 (halved for floats) *)
  | Hashed of int  (** the seeded deterministic fill *)

(* small values so predicates/thresholds in the dataset are exercised on
   both sides *)
let[@inline] int_cell (f : fill) ~(name_hash : int) (i : int) : int =
  match f with
  | Zeros -> 0
  | Ramp -> (i mod 7) - 3
  | Hashed seed -> mix (name_hash + seed) i mod 256

let[@inline] float_cell (f : fill) ~(name_hash : int) (i : int) : float =
  match f with
  | Zeros -> 0.0
  | Ramp -> float_of_int ((i mod 7) - 3) *. 0.5
  | Hashed seed -> float_of_int (mix (name_hash + seed) i mod 1024) /. 1024.0

(** Array [a] filled from [fill] as a native plane: integer cells as
    native ints (fills are small, so the value is exact), float cells
    unboxed.  The loops live here, next to the cells they inline. *)
let int_plane (fill : fill) (a : Ir.array_obj) : int array =
  let name_hash = str_hash a.Ir.arr_name in
  let plane = Array.make (Ir.array_elems a) 0 in
  for i = 0 to Array.length plane - 1 do
    plane.(i) <- int_cell fill ~name_hash i
  done;
  plane

let float_plane (fill : fill) (a : Ir.array_obj) : float array =
  let name_hash = str_hash a.Ir.arr_name in
  let plane = Array.make (Ir.array_elems a) 0.0 in
  for i = 0 to Array.length plane - 1 do
    plane.(i) <- float_cell fill ~name_hash i
  done;
  plane

let alloc_array ~(fill : fill) (a : Ir.array_obj) : mem =
  if Ir.is_float_scalar a.Ir.arr_elem then MF (float_plane fill a)
  else
    let name_hash = str_hash a.Ir.arr_name in
    MI
      (Array.init (Ir.array_elems a) (fun i ->
           Int64.of_int (int_cell fill ~name_hash i)))

(** A fresh state whose arrays start from [fill], or from the seeded fill
    [Hashed seed] when no [fill] is given. *)
let init_state ?(seed = 0) ?fill ?(max_steps = 200_000_000) ?observer
    ?loop_enter ?loop_exit (m : Ir.modul) : state =
  let fill = Option.value fill ~default:(Hashed seed) in
  let mem = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace mem a.Ir.arr_name (alloc_array ~fill a))
    m.Ir.m_arrays;
  { m; mem; steps = 0; max_steps; observer; loop_enter; loop_exit }

(* ------------------------------------------------------------------ *)
(* Scalar semantics                                                     *)
(* ------------------------------------------------------------------ *)

let[@inline always] wrap_int (sty : Ir.scalar_ty) (v : int64) : int64 =
  match sty with
  | Ir.I1 -> Int64.logand v 1L
  | Ir.I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | Ir.I16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | Ir.I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | Ir.I64 -> v
  | Ir.F32 | Ir.F64 -> v

let[@inline always] round_f32 (f : float) : float = Int32.float_of_bits (Int32.bits_of_float f)

let[@inline always] wrap_float (sty : Ir.scalar_ty) (f : float) : float =
  match sty with Ir.F32 -> round_f32 f | _ -> f

let ibin_eval (op : Ir.ibin) (a : int64) (b : int64) : int64 =
  let open Int64 in
  match op with
  | Ir.Add -> add a b
  | Ir.Sub -> sub a b
  | Ir.Mul -> mul a b
  | Ir.SDiv -> if b = 0L then 0L else div a b
  | Ir.SRem -> if b = 0L then 0L else rem a b
  | Ir.Shl -> shift_left a (to_int (logand b 63L))
  | Ir.AShr -> shift_right a (to_int (logand b 63L))
  | Ir.And -> logand a b
  | Ir.Or -> logor a b
  | Ir.Xor -> logxor a b

let[@inline always] fbin_eval (op : Ir.fbin) (a : float) (b : float) : float =
  match op with
  | Ir.FAdd -> a +. b
  | Ir.FSub -> a -. b
  | Ir.FMul -> a *. b
  | Ir.FDiv -> a /. b

let cmp_eval_i (op : Ir.cmp) (a : int64) (b : int64) : int64 =
  let r =
    match op with
    | Ir.CLt -> a < b
    | Ir.CLe -> a <= b
    | Ir.CGt -> a > b
    | Ir.CGe -> a >= b
    | Ir.CEq -> a = b
    | Ir.CNe -> a <> b
  in
  if r then 1L else 0L

let cmp_eval_f (op : Ir.cmp) (a : float) (b : float) : int64 =
  let r =
    match op with
    | Ir.CLt -> a < b
    | Ir.CLe -> a <= b
    | Ir.CGt -> a > b
    | Ir.CGe -> a >= b
    | Ir.CEq -> a = b
    | Ir.CNe -> a <> b
  in
  if r then 1L else 0L

(* ------------------------------------------------------------------ *)
(* Register file                                                        *)
(* ------------------------------------------------------------------ *)

type frame = { fn : Ir.func; regs : rvalue_v array; st : state }

let get_reg fr r = fr.regs.(r)

let set_reg fr r v = fr.regs.(r) <- v

let eval_value fr (v : Ir.value) : rvalue_v =
  match v with
  | Ir.Reg r -> get_reg fr r
  | Ir.IConst i -> VI i
  | Ir.FConst f -> VF f

let as_int = function
  | VI i -> i
  | VF f -> Int64.of_float f
  | VVI _ | VVF _ -> trap "expected scalar int, got vector"

let as_float = function
  | VF f -> f
  | VI i -> Int64.to_float i
  | VVI _ | VVF _ -> trap "expected scalar float, got vector"

(** View a value as an [n]-lane integer vector (splatting scalars). *)
let as_vec_i n = function
  | VVI a ->
      if Array.length a <> n then
        trap "vector width mismatch: have %d lanes, need %d" (Array.length a) n
      else a
  | VI i -> Array.make n i
  | VF _ | VVF _ -> trap "expected int vector"

let as_vec_f n = function
  | VVF a ->
      if Array.length a <> n then
        trap "vector width mismatch: have %d lanes, need %d" (Array.length a) n
      else a
  | VF f -> Array.make n f
  | VI i -> Array.make n (Int64.to_float i)
  | VVI _ -> trap "expected float vector"

(* ------------------------------------------------------------------ *)
(* Memory access                                                        *)
(* ------------------------------------------------------------------ *)

let find_mem st base =
  match Hashtbl.find_opt st.mem base with
  | Some m -> m
  | None -> trap "unknown array %s" base

let mem_load_scalar st (sty : Ir.scalar_ty) base (idx : int) : rvalue_v =
  match find_mem st base with
  | MI a ->
      if idx < 0 || idx >= Array.length a then
        trap "out-of-bounds load %s[%d] (size %d)" base idx (Array.length a);
      VI (wrap_int sty a.(idx))
  | MF a ->
      if idx < 0 || idx >= Array.length a then
        trap "out-of-bounds load %s[%d] (size %d)" base idx (Array.length a);
      VF (wrap_float sty a.(idx))

let mem_store_scalar st (sty : Ir.scalar_ty) base (idx : int) (v : rvalue_v) =
  match find_mem st base with
  | MI a ->
      if idx < 0 || idx >= Array.length a then
        trap "out-of-bounds store %s[%d] (size %d)" base idx (Array.length a);
      a.(idx) <- wrap_int sty (as_int v)
  | MF a ->
      if idx < 0 || idx >= Array.length a then
        trap "out-of-bounds store %s[%d] (size %d)" base idx (Array.length a);
      a.(idx) <- wrap_float sty (as_float v)

(* ------------------------------------------------------------------ *)
(* Rvalue evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let eval_cast fr (k : Ir.cast_kind) ~(to_ : Ir.ty) (v : rvalue_v) : rvalue_v =
  let open Ir in
  let sty = elem_ty to_ in
  let conv_scalar_i (i : int64) : rvalue_v =
    match k with
    | ZExt | SExt | Trunc -> VI (wrap_int sty i)
    | SiToFp -> VF (wrap_float sty (Int64.to_float i))
    | FpExt | FpTrunc | FpToSi -> trap "int input to float cast"
  in
  let conv_scalar_f (f : float) : rvalue_v =
    match k with
    | FpExt | FpTrunc -> VF (wrap_float sty f)
    | FpToSi -> VI (wrap_int sty (Int64.of_float f))
    | ZExt | SExt | Trunc | SiToFp -> trap "float input to int cast"
  in
  ignore fr;
  (* a scalar input to a vector-typed cast is an (implicit) broadcast of a
     loop-invariant value *)
  let broadcast r =
    match (to_, r) with
    | Vec (n, _), VI i -> VVI (Array.make n i)
    | Vec (n, _), VF f -> VVF (Array.make n f)
    | _, r -> r
  in
  match v with
  | VI i -> broadcast (conv_scalar_i i)
  | VF f -> broadcast (conv_scalar_f f)
  | VVI a ->
      let results = Array.map (fun i -> conv_scalar_i i) a in
      if is_float_scalar sty then
        VVF (Array.map (function VF f -> f | _ -> assert false) results)
      else VVI (Array.map (function VI i -> i | _ -> assert false) results)
  | VVF a ->
      let results = Array.map (fun f -> conv_scalar_f f) a in
      if is_float_scalar sty then
        VVF (Array.map (function VF f -> f | _ -> assert false) results)
      else VVI (Array.map (function VI i -> i | _ -> assert false) results)

let eval_rvalue fr (rv : Ir.rvalue) : rvalue_v =
  let open Ir in
  let st = fr.st in
  match rv with
  | IBin (op, ty, a, b) -> (
      let sty = elem_ty ty in
      match ty with
      | Scalar _ ->
          VI (wrap_int sty (ibin_eval op (as_int (eval_value fr a))
                              (as_int (eval_value fr b))))
      | Vec (n, _) ->
          let va = as_vec_i n (eval_value fr a)
          and vb = as_vec_i n (eval_value fr b) in
          VVI (Array.init n (fun k -> wrap_int sty (ibin_eval op va.(k) vb.(k)))))
  | FBin (op, ty, a, b) -> (
      let sty = elem_ty ty in
      match ty with
      | Scalar _ ->
          VF (wrap_float sty (fbin_eval op (as_float (eval_value fr a))
                                (as_float (eval_value fr b))))
      | Vec (n, _) ->
          let va = as_vec_f n (eval_value fr a)
          and vb = as_vec_f n (eval_value fr b) in
          VVF (Array.init n (fun k -> wrap_float sty (fbin_eval op va.(k) vb.(k)))))
  | ICmp (op, ty, a, b) -> (
      match ty with
      | Scalar _ ->
          VI (cmp_eval_i op (as_int (eval_value fr a)) (as_int (eval_value fr b)))
      | Vec (n, _) ->
          let va = as_vec_i n (eval_value fr a)
          and vb = as_vec_i n (eval_value fr b) in
          VVI (Array.init n (fun k -> cmp_eval_i op va.(k) vb.(k))))
  | FCmp (op, ty, a, b) -> (
      match ty with
      | Scalar _ ->
          VI (cmp_eval_f op (as_float (eval_value fr a)) (as_float (eval_value fr b)))
      | Vec (n, _) ->
          let va = as_vec_f n (eval_value fr a)
          and vb = as_vec_f n (eval_value fr b) in
          VVI (Array.init n (fun k -> cmp_eval_f op va.(k) vb.(k))))
  | Select (ty, c, a, b) -> (
      match ty with
      | Scalar s ->
          let cv = as_int (eval_value fr c) in
          let pick = if cv <> 0L then a else b in
          if is_float_scalar s then VF (as_float (eval_value fr pick))
          else VI (as_int (eval_value fr pick))
      | Vec (n, s) ->
          let cv = as_vec_i n (eval_value fr c) in
          if is_float_scalar s then begin
            let va = as_vec_f n (eval_value fr a)
            and vb = as_vec_f n (eval_value fr b) in
            VVF (Array.init n (fun k -> if cv.(k) <> 0L then va.(k) else vb.(k)))
          end
          else begin
            let va = as_vec_i n (eval_value fr a)
            and vb = as_vec_i n (eval_value fr b) in
            VVI (Array.init n (fun k -> if cv.(k) <> 0L then va.(k) else vb.(k)))
          end)
  | Cast (k, _, to_, v) -> eval_cast fr k ~to_ (eval_value fr v)
  | Load (ty, mref) -> (
      let base_idx = Int64.to_int (as_int (eval_value fr mref.index)) in
      match ty with
      | Scalar s -> (
          (* a masked-off scalar access (VF=1 if-converted code) is a no-op *)
          match mref.mask with
          | Some mv when as_int (eval_value fr mv) = 0L ->
              if is_float_scalar s then VF 0.0 else VI 0L
          | _ -> mem_load_scalar st s mref.base base_idx)
      | Vec (n, s) ->
          let mask =
            match mref.mask with
            | Some mv -> as_vec_i n (eval_value fr mv)
            | None -> Array.make n 1L
          in
          if is_float_scalar s then
            VVF
              (Array.init n (fun k ->
                   if mask.(k) <> 0L then
                     as_float
                       (mem_load_scalar st s mref.base (base_idx + (k * mref.stride)))
                   else 0.0))
          else
            VVI
              (Array.init n (fun k ->
                   if mask.(k) <> 0L then
                     as_int
                       (mem_load_scalar st s mref.base (base_idx + (k * mref.stride)))
                   else 0L)))
  | Splat (ty, v) -> (
      match ty with
      | Scalar _ -> eval_value fr v
      | Vec (n, s) ->
          if is_float_scalar s then VVF (Array.make n (as_float (eval_value fr v)))
          else VVI (Array.make n (wrap_int s (as_int (eval_value fr v)))))
  | Extract (s, v, lane) -> (
      match eval_value fr v with
      | VVI a ->
          if lane >= Array.length a then
            trap "extract lane %d out of range (width %d)" lane (Array.length a);
          VI (wrap_int s a.(lane))
      | VVF a ->
          if lane >= Array.length a then
            trap "extract lane %d out of range (width %d)" lane (Array.length a);
          VF (wrap_float s a.(lane))
      | VI _ | VF _ -> trap "extract from scalar")
  | Reduce (op, s, v) -> (
      match eval_value fr v with
      | VVI a ->
          let f acc x =
            match op with
            | RAdd -> Int64.add acc x
            | RMul -> Int64.mul acc x
            | RMin -> min acc x
            | RMax -> max acc x
            | RAnd -> Int64.logand acc x
            | ROr -> Int64.logor acc x
            | RXor -> Int64.logxor acc x
          in
          VI (wrap_int s (Array.fold_left f a.(0) (Array.sub a 1 (Array.length a - 1))))
      | VVF a ->
          let f acc x =
            match op with
            | RAdd -> acc +. x
            | RMul -> acc *. x
            | RMin -> min acc x
            | RMax -> max acc x
            | RAnd | ROr | RXor -> trap "bitwise reduce on float vector"
          in
          (* F32 reductions round pairwise like the scalar loop would *)
          let wrapf x = wrap_float s x in
          VF (Array.fold_left (fun acc x -> wrapf (f acc x)) a.(0)
                (Array.sub a 1 (Array.length a - 1)))
      | VI _ | VF _ -> trap "reduce of scalar")
  | Mov (ty, v) -> (
      let sv = eval_value fr v in
      match (ty, sv) with
      | Scalar s, VI i -> VI (wrap_int s i)
      | Scalar s, VF f -> VF (wrap_float s f)
      | Vec (n, s), VI i -> VVI (Array.make n (wrap_int s i))
      | Vec (n, s), VF f -> VVF (Array.make n (wrap_float s f))
      | _, v -> v)
  | Stride (ty, v, step) -> (
      match ty with
      | Scalar _ -> eval_value fr v
      | Vec (n, s) ->
          if is_float_scalar s then trap "stride vector must be integral"
          else
            let base = as_int (eval_value fr v) in
            VVI
              (Array.init n (fun k ->
                   wrap_int s (Int64.add base (Int64.of_int (k * step))))))

(* ------------------------------------------------------------------ *)
(* Builtin calls                                                        *)
(* ------------------------------------------------------------------ *)

let eval_builtin name (args : rvalue_v list) : rvalue_v =
  let f1 f = match args with [ a ] -> VF (f (as_float a)) | _ -> trap "%s arity" name in
  let f2 f =
    match args with
    | [ a; b ] -> VF (f (as_float a) (as_float b))
    | _ -> trap "%s arity" name
  in
  match name with
  | "sqrt" | "sqrtf" -> f1 sqrt
  | "fabs" | "fabsf" -> f1 abs_float
  | "exp" -> f1 exp
  | "log" -> f1 (fun x -> if x <= 0.0 then 0.0 else log x)
  | "sin" -> f1 sin
  | "cos" -> f1 cos
  | "floor" -> f1 floor
  | "ceil" -> f1 ceil
  | "pow" -> f2 ( ** )
  | "fmax" -> f2 max
  | "fmin" -> f2 min
  | "abs" -> (
      match args with [ a ] -> VI (Int64.abs (as_int a)) | _ -> trap "abs arity")
  | _ -> trap "unknown builtin %s" name

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let tick fr (i : Ir.instr) =
  fr.st.steps <- fr.st.steps + 1;
  if fr.st.steps > fr.st.max_steps then trap "step budget exceeded";
  match fr.st.observer with Some f -> f i | None -> ()

let exec_instr fr (i : Ir.instr) =
  tick fr i;
  match i with
  | Ir.Def (r, rv) -> set_reg fr r (eval_rvalue fr rv)
  | Ir.Store (ty, mref, v) -> (
      let st = fr.st in
      let base_idx = Int64.to_int (as_int (eval_value fr mref.index)) in
      match ty with
      | Ir.Scalar s -> (
          match mref.mask with
          | Some mv when as_int (eval_value fr mv) = 0L -> ()
          | _ -> mem_store_scalar st s mref.base base_idx (eval_value fr v))
      | Ir.Vec (n, s) ->
          let mask =
            match mref.mask with
            | Some mv -> as_vec_i n (eval_value fr mv)
            | None -> Array.make n 1L
          in
          let sv = eval_value fr v in
          if Ir.is_float_scalar s then begin
            let va = as_vec_f n sv in
            for k = 0 to n - 1 do
              if mask.(k) <> 0L then
                mem_store_scalar st s mref.base (base_idx + (k * mref.stride))
                  (VF va.(k))
            done
          end
          else begin
            let va = as_vec_i n sv in
            for k = 0 to n - 1 do
              if mask.(k) <> 0L then
                mem_store_scalar st s mref.base (base_idx + (k * mref.stride))
                  (VI va.(k))
            done
          end)
  | Ir.CallI (ro, name, args) -> (
      let vals = List.map (eval_value fr) args in
      let result = eval_builtin name vals in
      match ro with Some r -> set_reg fr r result | None -> ())

let exec_code fr ((instrs, v) : Ir.code) : rvalue_v =
  List.iter (exec_instr fr) instrs;
  eval_value fr v

let rec exec_node fr (node : Ir.node) =
  match node with
  | Ir.Block is -> List.iter (exec_instr fr) is
  | Ir.If { cond; then_; else_ } ->
      let c = exec_code fr cond in
      if as_int c <> 0L then List.iter (exec_node fr) then_
      else List.iter (exec_node fr) else_
  | Ir.Loop l -> exec_loop fr l
  | Ir.WhileLoop { w_cond; w_body } ->
      let continue = ref true in
      while !continue do
        if as_int (exec_code fr w_cond) = 0L then continue := false
        else
          try List.iter (exec_node fr) w_body with
          | Break_exc -> continue := false
          | Continue_exc -> ()
      done
  | Ir.Return c -> raise (Return_exc (Option.map (exec_code fr) c))
  | Ir.BreakN -> raise Break_exc
  | Ir.ContinueN -> raise Continue_exc

and exec_loop fr (l : Ir.loop) =
  (match fr.st.loop_enter with Some f -> f l | None -> ());
  let init_v = exec_code fr l.Ir.l_init in
  set_reg fr l.Ir.l_var init_v;
  let bound = as_int (exec_code fr l.Ir.l_bound) in
  let sty =
    match Ir.reg_ty fr.fn l.Ir.l_var with Ir.Scalar s -> s | Ir.Vec _ -> Ir.I64
  in
  (try
     let continue = ref true in
     while !continue do
       let i = as_int (get_reg fr l.Ir.l_var) in
       if cmp_eval_i l.Ir.l_cmp i bound = 0L then continue := false
       else begin
         (try List.iter (exec_node fr) l.Ir.l_body with Continue_exc -> ());
         let i' = as_int (get_reg fr l.Ir.l_var) in
         set_reg fr l.Ir.l_var
           (VI (wrap_int sty (Int64.add i' (Int64.of_int l.Ir.l_step))))
       end
     done
   with Break_exc -> ());
  match fr.st.loop_exit with Some f -> f l | None -> ()

(** Run a function. [args] bind the scalar parameters in order; missing
    arguments default to small deterministic values. *)
let run_func (st : state) (fn : Ir.func) ?(args = []) () : rvalue_v option =
  let regs = Array.make (max 1 fn.Ir.fn_nregs) (VI 0L) in
  let fr = { fn; regs; st } in
  List.iteri
    (fun i (_, r, sty) ->
      let v =
        match List.nth_opt args i with
        | Some v -> v
        | None ->
            if Ir.is_float_scalar sty then VF 1.5
            else VI (Int64.of_int ((i + 2) * 3))
      in
      set_reg fr r v)
    fn.Ir.fn_params;
  try
    List.iter (exec_node fr) fn.Ir.fn_body;
    None
  with Return_exc v -> v

(** Hash of the full memory state plus a result value; used to compare a
    scalar run against a vectorized run. *)
let state_fingerprint (st : state) (result : rvalue_v option) : int =
  let h = ref 17 in
  let mixh x = h := mix !h x in
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) st.mem [] |> List.sort compare
  in
  List.iter
    (fun name ->
      mixh (str_hash name);
      match Hashtbl.find st.mem name with
      | MI a -> Array.iter (fun v -> mixh (Int64.to_int (Int64.logand v 0xFFFFFFFFL))) a
      | MF a -> Array.iter (fun v -> mixh (Hashtbl.hash v)) a)
    names;
  (match result with
  | Some (VI i) -> mixh (Int64.to_int (Int64.logand i 0xFFFFFFFFL))
  | Some (VF f) -> mixh (Hashtbl.hash f)
  | Some (VVI _ | VVF _) | None -> ());
  !h
