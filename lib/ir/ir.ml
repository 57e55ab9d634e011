(** A typed, structured intermediate representation.

    The IR plays the role LLVM IR plays in the paper: the loop vectorizer
    transforms it, the baseline cost model prices it, and the machine model
    executes it. Unlike LLVM we keep loops structured (a loop tree rather
    than a raw CFG): every transformation this project needs — widening,
    interleaving, if-conversion, tiling, fusion — is defined on loop nests,
    and a structured IR makes the semantic-equivalence property tests
    (scalar vs. vectorized execution) direct.

    Registers are mutable virtual registers, not SSA: a scalar [sum] updated
    every iteration is simply redefined. Reduction recognition in
    [Analysis.Reduction] deals with the resulting loop-carried scalar
    cycles, which is also how LLVM's vectorizer views them after LCSSA. *)

type scalar_ty = I1 | I8 | I16 | I32 | I64 | F32 | F64

type ty = Scalar of scalar_ty | Vec of int * scalar_ty

type reg = int

type value = Reg of reg | IConst of int64 | FConst of float

type ibin = Add | Sub | Mul | SDiv | SRem | Shl | AShr | And | Or | Xor

type fbin = FAdd | FSub | FMul | FDiv

type cmp = CLt | CLe | CGt | CGe | CEq | CNe

type cast_kind = ZExt | SExt | Trunc | FpExt | FpTrunc | SiToFp | FpToSi

type reduce_op = RAdd | RMul | RMin | RMax | RAnd | ROr | RXor

(** A memory reference. [index] is an element index (not a byte offset) into
    the named array; lowering linearizes multi-dimensional accesses. For a
    vector access of width [n], lane [k] reads element [index + k*stride].
    [mask] (a [Vec (n, I1)] value) predicates lanes for if-converted code. *)
type mem_ref = {
  base : string;
  index : value;
  stride : int;
  mask : value option;
}

type rvalue =
  | IBin of ibin * ty * value * value
  | FBin of fbin * ty * value * value
  | ICmp of cmp * ty * value * value  (** operand type; result I1/Vec I1 *)
  | FCmp of cmp * ty * value * value
  | Select of ty * value * value * value
  | Cast of cast_kind * ty * ty * value  (** from, to *)
  | Load of ty * mem_ref
  | Splat of ty * value  (** broadcast a scalar into a vector *)
  | Extract of scalar_ty * value * int  (** lane extract *)
  | Reduce of reduce_op * scalar_ty * value  (** horizontal reduction *)
  | Mov of ty * value
  | Stride of ty * value * int
      (** lane-indexed vector: lane k = scalar + k*step; used to widen
          induction variables *)

type instr =
  | Def of reg * rvalue
  | Store of ty * mem_ref * value
  | CallI of reg option * string * value list  (** math builtins *)

(** Code computing a value: an instruction sequence plus the value it
    leaves the result in. *)
type code = instr list * value

type node =
  | Block of instr list
  | If of { cond : code; then_ : node list; else_ : node list }
  | Loop of loop
  | WhileLoop of { w_cond : code; w_body : node list }
      (** uncounted loop; never vectorized *)
  | Return of code option
  | BreakN
  | ContinueN

and loop = {
  l_id : int;  (** unique within the module *)
  l_var : reg;  (** induction variable, I64 *)
  l_init : code;
  l_bound : code;  (** loop-invariant; hoisted and evaluated once *)
  l_cmp : cmp;  (** i [l_cmp] bound continues the loop *)
  l_step : int;  (** constant step, non-zero *)
  l_pragma : Minic.Ast.loop_pragma option;
  l_site : int option;
      (** extractor ordinal of the innermost source [for] this loop was
          lowered from ({!Minic.Ast.has_inner_for}); travels with
          [l_pragma] through the mid-end.  [None] for loops no site
          produced: outer loops and Polly's tile loops *)
  l_body : node list;
  l_trip_hint : int option;
      (** expected iteration count when not derivable from the bounds
          (set by transforms that split loops, e.g. remainder loops) *)
}

type array_obj = {
  arr_name : string;
  arr_elem : scalar_ty;
  arr_dims : int list;  (** outermost first; product = element count *)
  arr_align : int;
}

type func = {
  fn_name : string;
  fn_params : (string * reg * scalar_ty) list;
  mutable fn_nregs : int;
  mutable fn_regty : ty array;
  mutable fn_body : node list;
}

type modul = {
  mutable m_arrays : array_obj list;
  mutable m_funcs : func list;
}

(* ------------------------------------------------------------------ *)
(* Type helpers                                                         *)
(* ------------------------------------------------------------------ *)

let scalar_size = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | F32 -> 4
  | I64 | F64 -> 8

let is_float_scalar = function F32 | F64 -> true | _ -> false

let elem_ty = function Scalar s -> s | Vec (_, s) -> s

let width = function Scalar _ -> 1 | Vec (n, _) -> n

(** Widen a scalar type to a vector of [n] lanes ([n = 1] keeps it scalar). *)
let widen n ty =
  let s = elem_ty ty in
  if n = 1 then Scalar s else Vec (n, s)

let array_elems a = List.fold_left ( * ) 1 a.arr_dims

let find_array m name = List.find_opt (fun a -> a.arr_name = name) m.m_arrays

(* ------------------------------------------------------------------ *)
(* Register management                                                  *)
(* ------------------------------------------------------------------ *)

let new_func name params_tys : func =
  let fn =
    { fn_name = name; fn_params = []; fn_nregs = 0;
      fn_regty = Array.make 16 (Scalar I64); fn_body = [] }
  in
  let params =
    List.map
      (fun (pname, sty) ->
        let r = fn.fn_nregs in
        fn.fn_nregs <- fn.fn_nregs + 1;
        if r >= Array.length fn.fn_regty then begin
          let bigger = Array.make (2 * Array.length fn.fn_regty) (Scalar I64) in
          Array.blit fn.fn_regty 0 bigger 0 (Array.length fn.fn_regty);
          fn.fn_regty <- bigger
        end;
        fn.fn_regty.(r) <- Scalar sty;
        (pname, r, sty))
      params_tys
  in
  { fn with fn_params = params }

let fresh_reg (fn : func) (ty : ty) : reg =
  let r = fn.fn_nregs in
  fn.fn_nregs <- fn.fn_nregs + 1;
  if r >= Array.length fn.fn_regty then begin
    let bigger = Array.make (max 16 (2 * Array.length fn.fn_regty)) (Scalar I64) in
    Array.blit fn.fn_regty 0 bigger 0 (Array.length fn.fn_regty);
    fn.fn_regty <- bigger
  end;
  fn.fn_regty.(r) <- ty;
  r

let reg_ty (fn : func) (r : reg) : ty = fn.fn_regty.(r)

(* ------------------------------------------------------------------ *)
(* Copying                                                              *)
(* ------------------------------------------------------------------ *)

(** Deep copy of a function with respect to every mutable cell: a fresh
    record, a fresh register-type array.  The node tree is shared — nodes
    are immutable, and every pass in this repo (LICM, CSE, the vectorizer)
    rewrites by rebuilding nodes and assigning [fn_body], never by mutating
    a node in place — so transforming the copy cannot be observed through
    the original. *)
let copy_func (fn : func) : func =
  { fn with fn_regty = Array.copy fn.fn_regty }

(** Deep structural copy of a module's mutable state.  This is what makes
    shared-artifact action sweeps possible: lower + LICM/CSE a program once
    into a pristine pre-vectorization module, then give each of the 35
    (VF, IF) actions its own [copy_modul] to transform, instead of
    re-running the whole front-to-mid-end per action.  Register numbering,
    loop ids and gensym'd names are preserved exactly, so a pipeline run on
    a copy is bit-identical to a run on a fresh lowering. *)
let copy_modul (m : modul) : modul =
  { m_arrays = m.m_arrays; m_funcs = List.map copy_func m.m_funcs }

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)
(* ------------------------------------------------------------------ *)

(** Iterate over all loops in a node list, outer loops before inner. *)
let rec iter_loops f (nodes : node list) =
  List.iter
    (fun n ->
      match n with
      | Loop l ->
          f l;
          iter_loops f l.l_body
      | If { then_; else_; _ } ->
          iter_loops f then_;
          iter_loops f else_
      | WhileLoop { w_body; _ } -> iter_loops f w_body
      | Block _ | Return _ | BreakN | ContinueN -> ())
    nodes

let func_loops fn =
  let acc = ref [] in
  iter_loops (fun l -> acc := l :: !acc) fn.fn_body;
  List.rev !acc

(** Innermost loops: loops containing no other loop. *)
let innermost_loops fn =
  let has_inner l =
    let found = ref false in
    iter_loops (fun _ -> found := true) l.l_body;
    !found
  in
  List.filter (fun l -> not (has_inner l)) (func_loops fn)

(** Map over every loop node bottom-up, rebuilding the tree. *)
let rec map_loops (f : loop -> node) (nodes : node list) : node list =
  List.map
    (fun n ->
      match n with
      | Loop l ->
          let l = { l with l_body = map_loops f l.l_body } in
          f l
      | If { cond; then_; else_ } ->
          If { cond; then_ = map_loops f then_; else_ = map_loops f else_ }
      | WhileLoop { w_cond; w_body } ->
          WhileLoop { w_cond; w_body = map_loops f w_body }
      | other -> other)
    nodes

(** All instructions in a node list, in order, ignoring control structure. *)
let rec all_instrs (nodes : node list) : instr list =
  List.concat_map
    (fun n ->
      match n with
      | Block is -> is
      | If { cond = ci, _; then_; else_ } ->
          ci @ all_instrs then_ @ all_instrs else_
      | Loop l ->
          let ii, _ = l.l_init and bi, _ = l.l_bound in
          ii @ bi @ all_instrs l.l_body
      | WhileLoop { w_cond = ci, _; w_body } -> ci @ all_instrs w_body
      | Return (Some (ci, _)) -> ci
      | Return None | BreakN | ContinueN -> [])
    nodes

(** Fold over the same instructions as {!all_instrs}, in the same order,
    without materializing the list — for whole-module summaries (e.g. the
    compile-time model) that run once per evaluated action. *)
let rec fold_instrs (f : 'a -> instr -> 'a) (acc : 'a) (nodes : node list) :
    'a =
  List.fold_left
    (fun acc n ->
      match n with
      | Block is -> List.fold_left f acc is
      | If { cond = ci, _; then_; else_ } ->
          fold_instrs f (fold_instrs f (List.fold_left f acc ci) then_) else_
      | Loop l ->
          let ii, _ = l.l_init and bi, _ = l.l_bound in
          fold_instrs f
            (List.fold_left f (List.fold_left f acc ii) bi)
            l.l_body
      | WhileLoop { w_cond = ci, _; w_body } ->
          fold_instrs f (List.fold_left f acc ci) w_body
      | Return (Some (ci, _)) -> List.fold_left f acc ci
      | Return None | BreakN | ContinueN -> acc)
    acc nodes

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let scalar_ty_to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let ty_to_string = function
  | Scalar s -> scalar_ty_to_string s
  | Vec (n, s) -> Printf.sprintf "<%d x %s>" n (scalar_ty_to_string s)

let value_to_string = function
  | Reg r -> Printf.sprintf "%%r%d" r
  | IConst i -> Int64.to_string i
  | FConst f -> Printf.sprintf "%g" f

let ibin_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | SDiv -> "sdiv"
  | SRem -> "srem"
  | Shl -> "shl"
  | AShr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let fbin_to_string = function
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"

let cmp_to_string = function
  | CLt -> "lt"
  | CLe -> "le"
  | CGt -> "gt"
  | CGe -> "ge"
  | CEq -> "eq"
  | CNe -> "ne"

let cast_to_string = function
  | ZExt -> "zext"
  | SExt -> "sext"
  | Trunc -> "trunc"
  | FpExt -> "fpext"
  | FpTrunc -> "fptrunc"
  | SiToFp -> "sitofp"
  | FpToSi -> "fptosi"

let reduce_to_string = function
  | RAdd -> "add"
  | RMul -> "mul"
  | RMin -> "min"
  | RMax -> "max"
  | RAnd -> "and"
  | ROr -> "or"
  | RXor -> "xor"

let mem_ref_to_string m =
  let mask =
    match m.mask with Some v -> ", mask " ^ value_to_string v | None -> ""
  in
  let stride = if m.stride = 1 then "" else Printf.sprintf ", stride %d" m.stride in
  Printf.sprintf "%s[%s%s%s]" m.base (value_to_string m.index) stride mask

let rvalue_to_string = function
  | IBin (op, ty, a, b) ->
      Printf.sprintf "%s %s %s, %s" (ibin_to_string op) (ty_to_string ty)
        (value_to_string a) (value_to_string b)
  | FBin (op, ty, a, b) ->
      Printf.sprintf "%s %s %s, %s" (fbin_to_string op) (ty_to_string ty)
        (value_to_string a) (value_to_string b)
  | ICmp (op, ty, a, b) ->
      Printf.sprintf "icmp %s %s %s, %s" (cmp_to_string op) (ty_to_string ty)
        (value_to_string a) (value_to_string b)
  | FCmp (op, ty, a, b) ->
      Printf.sprintf "fcmp %s %s %s, %s" (cmp_to_string op) (ty_to_string ty)
        (value_to_string a) (value_to_string b)
  | Select (ty, c, a, b) ->
      Printf.sprintf "select %s %s, %s, %s" (ty_to_string ty)
        (value_to_string c) (value_to_string a) (value_to_string b)
  | Cast (k, from_, to_, v) ->
      Printf.sprintf "%s %s %s to %s" (cast_to_string k) (ty_to_string from_)
        (value_to_string v) (ty_to_string to_)
  | Load (ty, m) -> Printf.sprintf "load %s %s" (ty_to_string ty) (mem_ref_to_string m)
  | Splat (ty, v) -> Printf.sprintf "splat %s %s" (ty_to_string ty) (value_to_string v)
  | Extract (s, v, lane) ->
      Printf.sprintf "extract %s %s, %d" (scalar_ty_to_string s)
        (value_to_string v) lane
  | Reduce (op, s, v) ->
      Printf.sprintf "reduce.%s %s %s" (reduce_to_string op)
        (scalar_ty_to_string s) (value_to_string v)
  | Mov (ty, v) -> Printf.sprintf "mov %s %s" (ty_to_string ty) (value_to_string v)
  | Stride (ty, v, step) ->
      Printf.sprintf "stride %s %s, +%d" (ty_to_string ty) (value_to_string v) step

let instr_to_string = function
  | Def (r, rv) -> Printf.sprintf "%%r%d = %s" r (rvalue_to_string rv)
  | Store (ty, m, v) ->
      Printf.sprintf "store %s %s, %s" (ty_to_string ty) (value_to_string v)
        (mem_ref_to_string m)
  | CallI (Some r, f, args) ->
      Printf.sprintf "%%r%d = call %s(%s)" r f
        (String.concat ", " (List.map value_to_string args))
  | CallI (None, f, args) ->
      Printf.sprintf "call %s(%s)" f
        (String.concat ", " (List.map value_to_string args))

let rec node_to_buf buf lvl node =
  let ind n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let instrs lvl is =
    List.iter
      (fun i ->
        ind lvl;
        Buffer.add_string buf (instr_to_string i);
        Buffer.add_char buf '\n')
      is
  in
  match node with
  | Block is -> instrs lvl is
  | If { cond = ci, cv; then_; else_ } ->
      instrs lvl ci;
      ind lvl;
      Buffer.add_string buf (Printf.sprintf "if %s {\n" (value_to_string cv));
      List.iter (node_to_buf buf (lvl + 1)) then_;
      if else_ <> [] then begin
        ind lvl;
        Buffer.add_string buf "} else {\n";
        List.iter (node_to_buf buf (lvl + 1)) else_
      end;
      ind lvl;
      Buffer.add_string buf "}\n"
  | Loop l ->
      let ii, iv = l.l_init and bi, bv = l.l_bound in
      instrs lvl ii;
      instrs lvl bi;
      ind lvl;
      Buffer.add_string buf
        (Printf.sprintf "loop#%d %%r%d = %s; %%r%d %s %s; step %+d%s {\n" l.l_id
           l.l_var (value_to_string iv) l.l_var (cmp_to_string l.l_cmp)
           (value_to_string bv) l.l_step
           (match l.l_pragma with
           | Some { Minic.Ast.vectorize_width = Some vf;
                    interleave_count = Some if_; _ } ->
               Printf.sprintf " [vf=%d if=%d]" vf if_
           | _ -> ""));
      List.iter (node_to_buf buf (lvl + 1)) l.l_body;
      ind lvl;
      Buffer.add_string buf "}\n"
  | WhileLoop { w_cond = ci, cv; w_body } ->
      ind lvl;
      Buffer.add_string buf "while {\n";
      instrs (lvl + 1) ci;
      ind (lvl + 1);
      Buffer.add_string buf (Printf.sprintf "cond %s\n" (value_to_string cv));
      List.iter (node_to_buf buf (lvl + 1)) w_body;
      ind lvl;
      Buffer.add_string buf "}\n"
  | Return (Some (ci, v)) ->
      instrs lvl ci;
      ind lvl;
      Buffer.add_string buf (Printf.sprintf "ret %s\n" (value_to_string v))
  | Return None ->
      ind lvl;
      Buffer.add_string buf "ret void\n"
  | BreakN ->
      ind lvl;
      Buffer.add_string buf "break\n"
  | ContinueN ->
      ind lvl;
      Buffer.add_string buf "continue\n"

let func_to_string fn =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s) {\n" fn.fn_name
       (String.concat ", "
          (List.map
             (fun (n, r, s) ->
               Printf.sprintf "%s: %%r%d %s" n r (scalar_ty_to_string s))
             fn.fn_params)));
  List.iter (node_to_buf buf 1) fn.fn_body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let modul_to_string m =
  let buf = Buffer.create 1024 in
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "array %s : %s[%s] align %d\n" a.arr_name
           (scalar_ty_to_string a.arr_elem)
           (String.concat "][" (List.map string_of_int a.arr_dims))
           a.arr_align))
    m.m_arrays;
  List.iter (fun f -> Buffer.add_string buf (func_to_string f)) m.m_funcs;
  Buffer.contents buf
