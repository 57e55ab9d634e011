(** Lowering from the mini-C AST to the IR.

    Responsibilities:
    - allocate module-level arrays for global (and local) array variables;
    - map scalar variables to virtual registers with C-style promotions;
    - linearize multi-dimensional array indexing;
    - canonicalize [for] loops into counted [Ir.Loop] nodes (induction
      variable, hoisted loop-invariant bound, constant step) — loops that do
      not fit the canonical shape become [Ir.WhileLoop]s, which the
      vectorizer will refuse, exactly as LLVM's loop vectorizer refuses
      loops it cannot canonicalize;
    - carry [#pragma clang loop] annotations through to [Ir.loop].

    Deliberate semantic simplifications (documented in DESIGN.md): logical
    [&&]/[||] and the ternary operator evaluate both sides (no
    short-circuit); unsigned arithmetic uses signed operations. The
    benchmark corpus contains no code where this is observable. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let scalar_of_base : Minic.Ast.base_ty -> Ir.scalar_ty = function
  | Minic.Ast.Void -> error "cannot lower void value"
  | Minic.Ast.Char -> Ir.I8
  | Minic.Ast.Short -> Ir.I16
  | Minic.Ast.Int -> Ir.I32
  | Minic.Ast.Long -> Ir.I64
  | Minic.Ast.Float -> Ir.F32
  | Minic.Ast.Double -> Ir.F64

(** C usual arithmetic conversions on IR scalar types. *)
let promote (a : Ir.scalar_ty) (b : Ir.scalar_ty) : Ir.scalar_ty =
  let rank = function
    | Ir.I1 -> 0
    | Ir.I8 -> 1
    | Ir.I16 -> 2
    | Ir.I32 -> 3
    | Ir.I64 -> 4
    | Ir.F32 -> 5
    | Ir.F64 -> 6
  in
  let promote1 t = if rank t < rank Ir.I32 then Ir.I32 else t in
  let a = promote1 a and b = promote1 b in
  if rank a >= rank b then a else b

type local =
  | LReg of Ir.reg * Ir.scalar_ty
  | LArray of string * int list  (** module array name, concrete dims *)

type ctx = {
  m : Ir.modul;
  fn : Ir.func;
  bindings : (string * int) list;
  locals : (string, local) Hashtbl.t;
  loop_counter : int ref;
  site_counter : int ref;  (** innermost source [for]s seen so far *)
  gensym_counter : int ref;
      (** per-module, so concurrent lowerings on different domains produce
          identical (and un-torn) names for identical programs *)
  default_param_dim : int;
}

(* ------------------------------------------------------------------ *)
(* Scope handling                                                       *)
(* ------------------------------------------------------------------ *)

(** Run [f] in a child scope: locals declared inside are forgotten after,
    shadowed entries restored. *)
let in_scope ctx f =
  let saved = Hashtbl.copy ctx.locals in
  let r = f () in
  Hashtbl.reset ctx.locals;
  Hashtbl.iter (fun k v -> Hashtbl.replace ctx.locals k v) saved;
  r

let lookup_local ctx name = Hashtbl.find_opt ctx.locals name

(* ------------------------------------------------------------------ *)
(* Casts                                                                *)
(* ------------------------------------------------------------------ *)

let cast_kind ~(from_ : Ir.scalar_ty) ~(to_ : Ir.scalar_ty) : Ir.cast_kind option
    =
  let open Ir in
  if from_ = to_ then None
  else
    match (is_float_scalar from_, is_float_scalar to_) with
    | true, true -> Some (if scalar_size to_ > scalar_size from_ then FpExt else FpTrunc)
    | true, false -> Some FpToSi
    | false, true -> Some SiToFp
    | false, false ->
        Some (if scalar_size to_ > scalar_size from_ then SExt else Trunc)

(** Emit a conversion of [v] from [from_] to [to_], if needed. *)
let convert ctx (code : Ir.instr list) (v : Ir.value) ~from_ ~to_ :
    Ir.instr list * Ir.value =
  match cast_kind ~from_ ~to_ with
  | None -> (code, v)
  | Some k ->
      (* constant-fold casts of literals *)
      let open Ir in
      (match (v, k) with
      | IConst i, SiToFp -> (code, FConst (Int64.to_float i))
      | FConst f, FpToSi -> (code, IConst (Int64.of_float f))
      | IConst _, (SExt | ZExt | Trunc) -> (code, v)
      | FConst _, (FpExt | FpTrunc) -> (code, v)
      | _ ->
          let r = fresh_reg ctx.fn (Scalar to_) in
          (code @ [ Def (r, Cast (k, Scalar from_, Scalar to_, v)) ], Reg r))

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                  *)
(* ------------------------------------------------------------------ *)

(** Split a (possibly nested) [Index] expression into the base identifier
    and the index expressions, outermost first. *)
let rec split_index (e : Minic.Ast.expr) : string * Minic.Ast.expr list =
  match e with
  | Minic.Ast.Index (a, i) ->
      let base, idxs = split_index a in
      (base, idxs @ [ i ])
  | Minic.Ast.Ident name -> (name, [])
  | _ -> error "unsupported base expression for array indexing"

let ibin_of_ast : Minic.Ast.binop -> Ir.ibin = function
  | Minic.Ast.Add -> Ir.Add
  | Minic.Ast.Sub -> Ir.Sub
  | Minic.Ast.Mul -> Ir.Mul
  | Minic.Ast.Div -> Ir.SDiv
  | Minic.Ast.Rem -> Ir.SRem
  | Minic.Ast.Shl -> Ir.Shl
  | Minic.Ast.Shr -> Ir.AShr
  | Minic.Ast.BitAnd -> Ir.And
  | Minic.Ast.BitOr -> Ir.Or
  | Minic.Ast.BitXor -> Ir.Xor
  | op -> error "not an integer binop: %s" (Minic.Ast.binop_to_string op)

let fbin_of_ast : Minic.Ast.binop -> Ir.fbin = function
  | Minic.Ast.Add -> Ir.FAdd
  | Minic.Ast.Sub -> Ir.FSub
  | Minic.Ast.Mul -> Ir.FMul
  | Minic.Ast.Div -> Ir.FDiv
  | op -> error "not a float binop: %s" (Minic.Ast.binop_to_string op)

let cmp_of_ast : Minic.Ast.binop -> Ir.cmp = function
  | Minic.Ast.Lt -> Ir.CLt
  | Minic.Ast.Le -> Ir.CLe
  | Minic.Ast.Gt -> Ir.CGt
  | Minic.Ast.Ge -> Ir.CGe
  | Minic.Ast.Eq -> Ir.CEq
  | Minic.Ast.Ne -> Ir.CNe
  | op -> error "not a comparison: %s" (Minic.Ast.binop_to_string op)

(** Lower an expression. Returns the emitted instructions, the result value,
    and its scalar type. *)
let rec lower_expr ctx (e : Minic.Ast.expr) : Ir.instr list * Ir.value * Ir.scalar_ty
    =
  let open Ir in
  match e with
  | Minic.Ast.IntLit i ->
      ([], IConst i, if Minic.Ast.lit_ty i = Minic.Ast.int_ty then I32 else I64)
  | Minic.Ast.FloatLit f -> ([], FConst f, F64)
  | Minic.Ast.CharLit c -> ([], IConst (Int64.of_int (Char.code c)), I8)
  | Minic.Ast.Ident name -> (
      match lookup_local ctx name with
      | Some (LReg (r, sty)) -> ([], Reg r, sty)
      | Some (LArray (aname, [ 1 ])) ->
          (* global scalar, stored as a 1-element array *)
          let elem =
            match find_array ctx.m aname with
            | Some a -> a.arr_elem
            | None -> error "array object %s vanished" aname
          in
          let r = fresh_reg ctx.fn (Scalar elem) in
          ( [ Def (r, Load (Scalar elem,
                            { base = aname; index = IConst 0L; stride = 1;
                              mask = None })) ],
            Reg r, elem )
      | Some (LArray _) -> error "array %s used as a scalar value" name
      | None -> (
          match List.assoc_opt name ctx.bindings with
          | Some v -> ([], IConst (Int64.of_int v), I32)
          | None -> error "undeclared identifier %s" name))
  | Minic.Ast.Index _ ->
      let code, mref, sty = lower_mem_ref ctx e in
      let r = fresh_reg ctx.fn (Scalar sty) in
      (code @ [ Def (r, Load (Scalar sty, mref)) ], Reg r, sty)
  | Minic.Ast.Unop (Minic.Ast.Neg, a) ->
      let code, v, sty = lower_expr ctx a in
      let r = fresh_reg ctx.fn (Scalar sty) in
      let rv =
        if is_float_scalar sty then FBin (FSub, Scalar sty, FConst 0.0, v)
        else IBin (Sub, Scalar sty, IConst 0L, v)
      in
      (code @ [ Def (r, rv) ], Reg r, sty)
  | Minic.Ast.Unop (Minic.Ast.Not, a) ->
      let code, v, sty = lower_expr ctx a in
      let c = fresh_reg ctx.fn (Scalar I1) in
      let cmp_instr =
        if is_float_scalar sty then Def (c, FCmp (CEq, Scalar sty, v, FConst 0.0))
        else Def (c, ICmp (CEq, Scalar sty, v, IConst 0L))
      in
      let r = fresh_reg ctx.fn (Scalar I32) in
      (code @ [ cmp_instr; Def (r, Cast (ZExt, Scalar I1, Scalar I32, Reg c)) ],
       Reg r, I32)
  | Minic.Ast.Unop (Minic.Ast.BitNot, a) ->
      let code, v, sty = lower_expr ctx a in
      let r = fresh_reg ctx.fn (Scalar sty) in
      (code @ [ Def (r, IBin (Xor, Scalar sty, v, IConst (-1L))) ], Reg r, sty)
  | Minic.Ast.Unop ((Minic.Ast.PreInc | Minic.Ast.PreDec) as op, a) ->
      let delta = if op = Minic.Ast.PreInc then 1L else -1L in
      let code = lower_incr ctx a delta in
      let code2, v, sty = lower_expr ctx a in
      (code @ code2, v, sty)
  | Minic.Ast.Unop ((Minic.Ast.PostInc | Minic.Ast.PostDec) as op, a) ->
      let delta = if op = Minic.Ast.PostInc then 1L else -1L in
      let code0, v, sty = lower_expr ctx a in
      (* save the old value before updating *)
      let old = fresh_reg ctx.fn (Ir.Scalar sty) in
      let save = Def (old, Mov (Scalar sty, v)) in
      let code1 = lower_incr ctx a delta in
      (code0 @ [ save ] @ code1, Reg old, sty)
  | Minic.Ast.Binop ((Minic.Ast.LogAnd | Minic.Ast.LogOr) as op, a, b) ->
      let ca, va, sa = lower_expr ctx a in
      let cb, vb, sb = lower_expr ctx b in
      let to_bool code v sty =
        let c = fresh_reg ctx.fn (Scalar I1) in
        let i =
          if is_float_scalar sty then Def (c, FCmp (CNe, Scalar sty, v, FConst 0.0))
          else Def (c, ICmp (CNe, Scalar sty, v, IConst 0L))
        in
        (code @ [ i ], Reg c)
      in
      let ca, ba = to_bool ca va sa in
      let cb, bb = to_bool cb vb sb in
      let r1 = fresh_reg ctx.fn (Scalar I1) in
      let combine =
        if op = Minic.Ast.LogAnd then IBin (And, Scalar I1, ba, bb)
        else IBin (Or, Scalar I1, ba, bb)
      in
      let r = fresh_reg ctx.fn (Scalar I32) in
      ( ca @ cb @ [ Def (r1, combine); Def (r, Cast (ZExt, Scalar I1, Scalar I32, Reg r1)) ],
        Reg r, I32 )
  | Minic.Ast.Binop
      ((Minic.Ast.Lt | Minic.Ast.Gt | Minic.Ast.Le | Minic.Ast.Ge | Minic.Ast.Eq
       | Minic.Ast.Ne) as op, a, b) ->
      let ca, va, sa = lower_expr ctx a in
      let cb, vb, sb = lower_expr ctx b in
      let ct = promote sa sb in
      let ca, va = convert ctx ca va ~from_:sa ~to_:ct in
      let cb, vb = convert ctx cb vb ~from_:sb ~to_:ct in
      let c = fresh_reg ctx.fn (Scalar I1) in
      let cmp =
        if is_float_scalar ct then FCmp (cmp_of_ast op, Scalar ct, va, vb)
        else ICmp (cmp_of_ast op, Scalar ct, va, vb)
      in
      let r = fresh_reg ctx.fn (Scalar I32) in
      ( ca @ cb @ [ Def (c, cmp); Def (r, Cast (ZExt, Scalar I1, Scalar I32, Reg c)) ],
        Reg r, I32 )
  | Minic.Ast.Binop (op, a, b) ->
      let ca, va, sa = lower_expr ctx a in
      let cb, vb, sb = lower_expr ctx b in
      let ct = promote sa sb in
      let ca, va = convert ctx ca va ~from_:sa ~to_:ct in
      let cb, vb = convert ctx cb vb ~from_:sb ~to_:ct in
      let r = fresh_reg ctx.fn (Scalar ct) in
      let rv =
        if is_float_scalar ct then FBin (fbin_of_ast op, Scalar ct, va, vb)
        else IBin (ibin_of_ast op, Scalar ct, va, vb)
      in
      (ca @ cb @ [ Def (r, rv) ], Reg r, ct)
  | Minic.Ast.Assign (lhs, rhs) ->
      let code, v, sty = lower_assign ctx lhs rhs in
      (code, v, sty)
  | Minic.Ast.OpAssign (op, lhs, rhs) ->
      lower_assign ctx lhs (Minic.Ast.Binop (op, lhs, rhs))
  | Minic.Ast.Ternary (c, t, f) ->
      let cc, cv, cs = lower_expr ctx c in
      let ct_, tv, ts = lower_expr ctx t in
      let cf, fv, fs = lower_expr ctx f in
      let rt = promote ts fs in
      let ct_, tv = convert ctx ct_ tv ~from_:ts ~to_:rt in
      let cf, fv = convert ctx cf fv ~from_:fs ~to_:rt in
      let b = fresh_reg ctx.fn (Scalar I1) in
      let test =
        if is_float_scalar cs then Def (b, FCmp (CNe, Scalar cs, cv, FConst 0.0))
        else Def (b, ICmp (CNe, Scalar cs, cv, IConst 0L))
      in
      let r = fresh_reg ctx.fn (Scalar rt) in
      ( cc @ ct_ @ cf @ [ test; Def (r, Select (Scalar rt, Reg b, tv, fv)) ],
        Reg r, rt )
  | Minic.Ast.Call (name, args) -> (
      (* [abs], [max] and [min] take and return ints, as Sema types them;
         the math builtins take and return doubles *)
      let ty = match name with "abs" | "max" | "min" -> I32 | _ -> F64 in
      let codes, vals =
        List.fold_left
          (fun (cs, vs) a ->
            let c, v, s = lower_expr ctx a in
            let c, v = convert ctx c v ~from_:s ~to_:ty in
            (cs @ c, vs @ [ v ]))
          ([], []) args
      in
      let r = fresh_reg ctx.fn (Scalar ty) in
      match (name, vals) with
      | ("max" | "min"), [ a; b ] ->
          let t = fresh_reg ctx.fn (Scalar I1) in
          let cmp = if name = "max" then CGt else CLt in
          ( codes
            @ [ Def (t, ICmp (cmp, Scalar I32, a, b));
                Def (r, Select (Scalar I32, Reg t, a, b)) ],
            Reg r, I32 )
      | _ -> (codes @ [ CallI (Some r, name, vals) ], Reg r, ty))
  | Minic.Ast.Cast (ty, a) ->
      let code, v, sty = lower_expr ctx a in
      let to_ = scalar_of_base ty.Minic.Ast.base in
      let code, v = convert ctx code v ~from_:sty ~to_ in
      (code, v, to_)
  | Minic.Ast.Comma (a, b) ->
      let ca, _, _ = lower_expr ctx a in
      let cb, v, s = lower_expr ctx b in
      (ca @ cb, v, s)

(** Lower an lvalue [Index] expression into a memory reference. *)
and lower_mem_ref ctx (e : Minic.Ast.expr) : Ir.instr list * Ir.mem_ref * Ir.scalar_ty
    =
  let open Ir in
  let base, idxs = split_index e in
  let arr_name, dims, elem =
    match lookup_local ctx base with
    | Some (LArray (name, dims)) -> (
        match find_array ctx.m name with
        | Some a -> (name, dims, a.arr_elem)
        | None -> error "array object %s vanished" name)
    | Some (LReg _) -> error "scalar %s indexed as an array" base
    | None -> error "undeclared array %s" base
  in
  if List.length idxs <> List.length dims then
    error "array %s: expected %d indices, got %d" base (List.length dims)
      (List.length idxs);
  (* linearize: ((i1*d2 + i2)*d3 + i3)... *)
  let code, lin =
    List.fold_left2
      (fun (code, acc) idx_expr dim ->
        let ci, vi, si = lower_expr ctx idx_expr in
        let ci, vi = convert ctx ci vi ~from_:si ~to_:I64 in
        match acc with
        | None -> (code @ ci, Some vi)
        | Some prev ->
            let scaled = fresh_reg ctx.fn (Scalar I64) in
            let added = fresh_reg ctx.fn (Scalar I64) in
            ( code @ ci
              @ [ Def (scaled, IBin (Mul, Scalar I64, prev, IConst (Int64.of_int dim)));
                  Def (added, IBin (Add, Scalar I64, Reg scaled, vi)) ],
              Some (Reg added) ))
      ([], None)
      idxs
      (match dims with [] -> [] | _ :: rest -> 1 :: rest)
  in
  let index = match lin with Some v -> v | None -> IConst 0L in
  (code, { base = arr_name; index; stride = 1; mask = None }, elem)

(** Lower [lhs = rhs]; returns the stored value (converted to lhs type). *)
and lower_assign ctx (lhs : Minic.Ast.expr) (rhs : Minic.Ast.expr) :
    Ir.instr list * Ir.value * Ir.scalar_ty =
  let open Ir in
  let crhs, v, srhs = lower_expr ctx rhs in
  match lhs with
  | Minic.Ast.Ident name -> (
      match lookup_local ctx name with
      | Some (LReg (r, sty)) ->
          let crhs, v = convert ctx crhs v ~from_:srhs ~to_:sty in
          (crhs @ [ Def (r, Mov (Scalar sty, v)) ], v, sty)
      | Some (LArray (aname, [ 1 ])) ->
          let elem =
            match find_array ctx.m aname with
            | Some a -> a.arr_elem
            | None -> error "array object %s vanished" aname
          in
          let crhs, v = convert ctx crhs v ~from_:srhs ~to_:elem in
          ( crhs
            @ [ Store (Scalar elem,
                       { base = aname; index = IConst 0L; stride = 1; mask = None },
                       v) ],
            v, elem )
      | Some (LArray _) -> error "cannot assign to array %s" name
      | None -> error "undeclared identifier %s" name)
  | Minic.Ast.Index _ ->
      let caddr, mref, sty = lower_mem_ref ctx lhs in
      let crhs, v = convert ctx crhs v ~from_:srhs ~to_:sty in
      (crhs @ caddr @ [ Store (Scalar sty, mref, v) ], v, sty)
  | _ -> error "unsupported lvalue"

(** Emit [lv += delta] for ++/--. *)
and lower_incr ctx (lv : Minic.Ast.expr) (delta : int64) : Ir.instr list =
  let code, _, _ =
    lower_assign ctx lv
      (Minic.Ast.Binop (Minic.Ast.Add, lv, Minic.Ast.IntLit delta))
  in
  code

(* ------------------------------------------------------------------ *)
(* Loop canonicalization helpers                                        *)
(* ------------------------------------------------------------------ *)

(** Variables assigned (including ++/--) anywhere in a statement. *)
let assigned_vars (s : Minic.Ast.stmt) : string list =
  let acc = ref [] in
  let rec expr e =
    match e with
    | Minic.Ast.Assign (l, r) | Minic.Ast.OpAssign (_, l, r) ->
        (match l with Minic.Ast.Ident n -> acc := n :: !acc | _ -> ());
        expr l;
        expr r
    | Minic.Ast.Unop ((Minic.Ast.PreInc | Minic.Ast.PreDec | Minic.Ast.PostInc
                      | Minic.Ast.PostDec), a) -> (
        (match a with Minic.Ast.Ident n -> acc := n :: !acc | _ -> ());
        expr a)
    | Minic.Ast.Unop (_, a) | Minic.Ast.Cast (_, a) -> expr a
    | Minic.Ast.Binop (_, a, b) | Minic.Ast.Index (a, b) | Minic.Ast.Comma (a, b)
      ->
        expr a;
        expr b
    | Minic.Ast.Ternary (a, b, c) ->
        expr a;
        expr b;
        expr c
    | Minic.Ast.Call (_, args) -> List.iter expr args
    | Minic.Ast.IntLit _ | Minic.Ast.FloatLit _ | Minic.Ast.CharLit _
    | Minic.Ast.Ident _ ->
        ()
  in
  let stmt s =
    match s with
    | Minic.Ast.Decl (_, n, e) ->
        acc := n :: !acc;
        Option.iter expr e
    | Minic.Ast.Expr e -> expr e
    | Minic.Ast.If (c, _, _) -> expr c
    | Minic.Ast.For { cond; step; _ } ->
        Option.iter expr cond;
        Option.iter expr step
    | Minic.Ast.While { Minic.Ast.w_cond; _ } -> expr w_cond
    | Minic.Ast.Return e -> Option.iter expr e
    | Minic.Ast.Block _ | Minic.Ast.Break | Minic.Ast.Continue | Minic.Ast.Empty
      ->
        ()
  in
  Minic.Ast.iter_stmts stmt s;
  !acc

(** Identifiers read by an expression. *)
let rec expr_idents (e : Minic.Ast.expr) : string list =
  match e with
  | Minic.Ast.Ident n -> [ n ]
  | Minic.Ast.IntLit _ | Minic.Ast.FloatLit _ | Minic.Ast.CharLit _ -> []
  | Minic.Ast.Unop (_, a) | Minic.Ast.Cast (_, a) -> expr_idents a
  | Minic.Ast.Binop (_, a, b)
  | Minic.Ast.Index (a, b)
  | Minic.Ast.Assign (a, b)
  | Minic.Ast.OpAssign (_, a, b)
  | Minic.Ast.Comma (a, b) ->
      expr_idents a @ expr_idents b
  | Minic.Ast.Ternary (a, b, c) -> expr_idents a @ expr_idents b @ expr_idents c
  | Minic.Ast.Call (_, args) -> List.concat_map expr_idents args

(** Match the step expression of a candidate counted loop: returns the
    constant increment of [var], if the step has that shape. *)
let match_step (var : string) (e : Minic.Ast.expr) : int option =
  match e with
  | Minic.Ast.Unop ((Minic.Ast.PostInc | Minic.Ast.PreInc), Minic.Ast.Ident v)
    when v = var ->
      Some 1
  | Minic.Ast.Unop ((Minic.Ast.PostDec | Minic.Ast.PreDec), Minic.Ast.Ident v)
    when v = var ->
      Some (-1)
  | Minic.Ast.OpAssign (Minic.Ast.Add, Minic.Ast.Ident v, Minic.Ast.IntLit c)
    when v = var ->
      Some (Int64.to_int c)
  | Minic.Ast.OpAssign (Minic.Ast.Sub, Minic.Ast.Ident v, Minic.Ast.IntLit c)
    when v = var ->
      Some (-Int64.to_int c)
  | Minic.Ast.Assign
      (Minic.Ast.Ident v,
       Minic.Ast.Binop (Minic.Ast.Add, Minic.Ast.Ident v', Minic.Ast.IntLit c))
    when v = var && v' = var ->
      Some (Int64.to_int c)
  | Minic.Ast.Assign
      (Minic.Ast.Ident v,
       Minic.Ast.Binop (Minic.Ast.Sub, Minic.Ast.Ident v', Minic.Ast.IntLit c))
    when v = var && v' = var ->
      Some (-Int64.to_int c)
  | _ -> None

(** Match the condition [var <cmp> bound] or [bound <cmp> var]. *)
let match_cond (var : string) (e : Minic.Ast.expr) :
    (Ir.cmp * Minic.Ast.expr) option =
  let flip = function
    | Ir.CLt -> Ir.CGt
    | Ir.CLe -> Ir.CGe
    | Ir.CGt -> Ir.CLt
    | Ir.CGe -> Ir.CLe
    | c -> c
  in
  match e with
  | Minic.Ast.Binop
      ((Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge) as op,
       Minic.Ast.Ident v, bound)
    when v = var && not (List.mem var (expr_idents bound)) ->
      Some (cmp_of_ast op, bound)
  | Minic.Ast.Binop
      ((Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge) as op, bound,
       Minic.Ast.Ident v)
    when v = var && not (List.mem var (expr_idents bound)) ->
      Some (flip (cmp_of_ast op), bound)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                   *)
(* ------------------------------------------------------------------ *)

let gensym ctx base =
  incr ctx.gensym_counter;
  Printf.sprintf "%s.%d" base !(ctx.gensym_counter)

let rec lower_stmt ctx (s : Minic.Ast.stmt) : Ir.node list =
  let open Ir in
  match s with
  | Minic.Ast.Decl (ty, name, init) ->
      if Minic.Ast.is_array ty then begin
        (* local array: promote to a module-level array with a unique name *)
        let env = Minic.Sema.make_env ~bindings:ctx.bindings () in
        let dims = Minic.Sema.concrete_dims env ty in
        let uname = gensym ctx (ctx.fn.fn_name ^ "." ^ name) in
        ctx.m.m_arrays <-
          ctx.m.m_arrays
          @ [ { arr_name = uname; arr_elem = scalar_of_base ty.Minic.Ast.base;
                arr_dims = dims; arr_align = 16 } ];
        Hashtbl.replace ctx.locals name (LArray (uname, dims));
        []
      end
      else begin
        let sty = scalar_of_base ty.Minic.Ast.base in
        let r = fresh_reg ctx.fn (Scalar sty) in
        Hashtbl.replace ctx.locals name (LReg (r, sty));
        match init with
        | Some e ->
            let code, v, s_init = lower_expr ctx e in
            let code, v = convert ctx code v ~from_:s_init ~to_:sty in
            [ Block (code @ [ Def (r, Mov (Scalar sty, v)) ]) ]
        | None ->
            let zero = if is_float_scalar sty then FConst 0.0 else IConst 0L in
            [ Block [ Def (r, Mov (Scalar sty, zero)) ] ]
      end
  | Minic.Ast.Expr e ->
      let code, _, _ = lower_expr ctx e in
      if code = [] then [] else [ Block code ]
  | Minic.Ast.Block ss ->
      in_scope ctx (fun () -> List.concat_map (lower_stmt ctx) ss)
  | Minic.Ast.If (c, t, f) ->
      let cc, cv, cs = lower_expr ctx c in
      let b = fresh_reg ctx.fn (Scalar I1) in
      let test =
        if is_float_scalar cs then Def (b, FCmp (CNe, Scalar cs, cv, FConst 0.0))
        else Def (b, ICmp (CNe, Scalar cs, cv, IConst 0L))
      in
      let then_ = in_scope ctx (fun () -> lower_stmt ctx t) in
      let else_ =
        match f with
        | Some f -> in_scope ctx (fun () -> lower_stmt ctx f)
        | None -> []
      in
      [ If { cond = (cc @ [ test ], Reg b); then_; else_ } ]
  | Minic.Ast.For { pragma; init; cond; step; body } ->
      in_scope ctx (fun () -> lower_for ctx pragma init cond step body)
  | Minic.Ast.While { Minic.Ast.w_pragma = _; w_cond; w_body } ->
      let cond_code () =
        let cc, cv, cs = lower_expr ctx w_cond in
        let b = fresh_reg ctx.fn (Scalar I1) in
        let test =
          if is_float_scalar cs then Def (b, FCmp (CNe, Scalar cs, cv, FConst 0.0))
          else Def (b, ICmp (CNe, Scalar cs, cv, IConst 0L))
        in
        (cc @ [ test ], Reg b)
      in
      let body = in_scope ctx (fun () -> lower_stmt ctx w_body) in
      [ WhileLoop { w_cond = cond_code (); w_body = body } ]
  | Minic.Ast.Return e -> (
      match e with
      | Some e ->
          let code, v, _ = lower_expr ctx e in
          [ Return (Some (code, v)) ]
      | None -> [ Return None ])
  | Minic.Ast.Break -> [ BreakN ]
  | Minic.Ast.Continue -> [ ContinueN ]
  | Minic.Ast.Empty -> []

(** Lower a [for] loop, canonicalizing to a counted [Loop] when possible. *)
and lower_for ctx pragma init cond step body : Ir.node list =
  let open Ir in
  (* number the site even when it falls back to a [while], so later
     sites keep the extractor's ordinals *)
  let site =
    if Minic.Ast.has_inner_for body then None
    else begin
      let k = !(ctx.site_counter) in
      incr ctx.site_counter;
      Some k
    end
  in
  (* Identify the induction variable from the init statement. *)
  let candidate =
    match init with
    | Some (Minic.Ast.Decl (ty, name, Some e))
      when not (Minic.Ast.is_array ty || Minic.Ast.is_float_base ty.Minic.Ast.base)
      ->
        Some (`Decl (ty, name, e))
    | Some (Minic.Ast.Expr (Minic.Ast.Assign (Minic.Ast.Ident name, e))) ->
        Some (`Assign (name, e))
    | _ -> None
  in
  let fallback () =
    (* Non-canonical: lower as init; while(cond) { body; step; } *)
    let init_nodes =
      match init with Some s -> lower_stmt ctx s | None -> []
    in
    let cond_expr =
      match cond with Some c -> c | None -> Minic.Ast.IntLit 1L
    in
    let cc, cv, cs = lower_expr ctx cond_expr in
    let b = fresh_reg ctx.fn (Scalar I1) in
    let test =
      if is_float_scalar cs then Def (b, FCmp (CNe, Scalar cs, cv, FConst 0.0))
      else Def (b, ICmp (CNe, Scalar cs, cv, IConst 0L))
    in
    let body_nodes = lower_stmt ctx body in
    let step_nodes =
      match step with
      | Some e ->
          let code, _, _ = lower_expr ctx e in
          if code = [] then [] else [ Block code ]
      | None -> []
    in
    init_nodes
    @ [ WhileLoop { w_cond = (cc @ [ test ], Reg b); w_body = body_nodes @ step_nodes } ]
  in
  match (candidate, cond, step) with
  | Some cand, Some cond_e, Some step_e -> (
      let var_name =
        match cand with `Decl (_, n, _) -> n | `Assign (n, _) -> n
      in
      match (match_cond var_name cond_e, match_step var_name step_e) with
      | Some (cmpop, bound_e), Some stepc when stepc <> 0 ->
          (* the bound and start must be loop-invariant *)
          let mutated = assigned_vars body in
          let bound_ids = expr_idents bound_e in
          if List.exists (fun v -> List.mem v mutated) bound_ids then fallback ()
          else begin
            (* declare/locate the induction variable register *)
            let var_reg, start_e =
              match cand with
              | `Decl (ty, name, e) ->
                  let sty = scalar_of_base ty.Minic.Ast.base in
                  let r = fresh_reg ctx.fn (Scalar sty) in
                  Hashtbl.replace ctx.locals name (LReg (r, sty));
                  (r, e)
              | `Assign (name, e) -> (
                  match lookup_local ctx name with
                  | Some (LReg (r, _)) -> (r, e)
                  | _ -> error "undeclared loop variable %s" name)
            in
            let var_sty =
              match reg_ty ctx.fn var_reg with
              | Scalar s -> s
              | Vec _ -> assert false
            in
            let ci, vi, si = lower_expr ctx start_e in
            let ci, vi = convert ctx ci vi ~from_:si ~to_:var_sty in
            let cb, vb, sb = lower_expr ctx bound_e in
            let cb, vb = convert ctx cb vb ~from_:sb ~to_:var_sty in
            let body_nodes = lower_stmt ctx body in
            let id = !(ctx.loop_counter) in
            incr ctx.loop_counter;
            [ Loop
                { l_id = id; l_var = var_reg; l_init = (ci, vi);
                  l_bound = (cb, vb); l_cmp = cmpop; l_step = stepc;
                  l_pragma = pragma; l_site = site; l_body = body_nodes;
                  l_trip_hint = None } ]
          end
      | _ -> fallback ())
  | _ -> fallback ()

(* ------------------------------------------------------------------ *)
(* Program lowering                                                     *)
(* ------------------------------------------------------------------ *)

(** Lower a whole program. [bindings] resolves symbolic constants in array
    bounds and loop bounds. Array-typed parameters get module-level storage;
    an unsized leading dimension defaults to [default_param_dim]. *)
let lower_program ?(bindings = []) ?(default_param_dim = 1024)
    (prog : Minic.Ast.program) : Ir.modul =
  let m = { Ir.m_arrays = []; m_funcs = [] } in
  let loop_counter = ref 0 and site_counter = ref 0 in
  let gensym_counter = ref 0 in
  let globals = Hashtbl.create 16 in
  (* First pass: global arrays and scalars. Global scalars become
     single-element arrays so functions can share them. *)
  List.iter
    (function
      | Minic.Ast.Global g ->
          let env = Minic.Sema.make_env ~bindings () in
          let elem = scalar_of_base g.Minic.Ast.g_ty.Minic.Ast.base in
          let dims =
            if Minic.Ast.is_array g.Minic.Ast.g_ty then
              Minic.Sema.concrete_dims env g.Minic.Ast.g_ty
            else [ 1 ]
          in
          let align =
            List.fold_left
              (fun acc a ->
                match a with Minic.Ast.Aligned n -> max acc n | _ -> acc)
              16 g.Minic.Ast.g_attrs
          in
          m.Ir.m_arrays <-
            m.Ir.m_arrays
            @ [ { Ir.arr_name = g.Minic.Ast.g_name; arr_elem = elem;
                  arr_dims = dims; arr_align = align } ];
          Hashtbl.replace globals g.Minic.Ast.g_name
            (LArray (g.Minic.Ast.g_name, dims),
             not (Minic.Ast.is_array g.Minic.Ast.g_ty))
      | Minic.Ast.Func _ -> ())
    prog;
  (* Second pass: functions. *)
  List.iter
    (function
      | Minic.Ast.Global _ -> ()
      | Minic.Ast.Func f ->
          let scalar_params, array_params =
            List.partition
              (fun p -> not (Minic.Ast.is_array p.Minic.Ast.p_ty))
              f.Minic.Ast.f_params
          in
          let fn =
            Ir.new_func f.Minic.Ast.f_name
              (List.map
                 (fun p ->
                   (p.Minic.Ast.p_name,
                    scalar_of_base p.Minic.Ast.p_ty.Minic.Ast.base))
                 scalar_params)
          in
          let locals = Hashtbl.create 16 in
          Hashtbl.iter
            (fun name (local, is_scalar) ->
              ignore is_scalar;
              Hashtbl.replace locals name local)
            globals;
          List.iter
            (fun (name, r, sty) -> Hashtbl.replace locals name (LReg (r, sty)))
            fn.Ir.fn_params;
          (* array params: module storage named <fn>.<param> *)
          List.iter
            (fun p ->
              let env = Minic.Sema.make_env ~bindings () in
              let dims =
                List.map
                  (function
                    | Some e -> Minic.Sema.eval_const env e
                    | None -> default_param_dim)
                  p.Minic.Ast.p_ty.Minic.Ast.dims
              in
              let uname = f.Minic.Ast.f_name ^ "." ^ p.Minic.Ast.p_name in
              m.Ir.m_arrays <-
                m.Ir.m_arrays
                @ [ { Ir.arr_name = uname;
                      arr_elem = scalar_of_base p.Minic.Ast.p_ty.Minic.Ast.base;
                      arr_dims = dims; arr_align = 16 } ];
              Hashtbl.replace locals p.Minic.Ast.p_name (LArray (uname, dims)))
            array_params;
          let ctx =
            { m; fn; bindings; locals; loop_counter; site_counter; gensym_counter;
              default_param_dim }
          in
          (* Global scalar loads: accessing them as scalars means load/store
             through their 1-element array; rewrite via locals happens lazily
             in lower_expr — here we instead pre-load them into registers is
             unsound if another function writes them, so we keep the array
             form. lower_expr handles LArray-with-dims=[1] idents below. *)
          let body = List.concat_map (lower_stmt ctx) f.Minic.Ast.f_body in
          fn.Ir.fn_body <- body;
          m.Ir.m_funcs <- m.Ir.m_funcs @ [ fn ])
    prog;
  m
