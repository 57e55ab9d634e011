(** Semantic analysis for mini-C: symbol resolution, type inference with the
    usual arithmetic conversions, and constant folding of array bounds.

    The dataset generated for the RL agent may reference symbolic bounds
    (e.g. [N], [M]) that in the original benchmarks come from [#define]s;
    [analyze] accepts a binding environment mapping those names to concrete
    values so the rest of the pipeline can allocate arrays and run loops. *)

exception Error of string

type sym = { s_ty : Ast.ty; s_dims : int list (* concrete dims, outermost first *) }

type env = {
  bindings : (string * int) list;  (** symbolic constants, e.g. N -> 512 *)
  mutable scopes : (string, sym) Hashtbl.t list;
  mutable funcs : (string * Ast.func) list;
}

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let make_env ?(bindings = []) () =
  { bindings; scopes = [ Hashtbl.create 16 ]; funcs = [] }

let push_scope env = env.scopes <- Hashtbl.create 16 :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest when rest <> [] -> env.scopes <- rest
  | _ -> ()

let lookup env name =
  let rec go = function
    | [] -> None
    | tbl :: rest -> (
        match Hashtbl.find_opt tbl name with Some s -> Some s | None -> go rest)
  in
  go env.scopes

let declare env name sym =
  match env.scopes with
  | tbl :: _ -> Hashtbl.replace tbl name sym
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Constant expression evaluation                                       *)
(* ------------------------------------------------------------------ *)

(** Evaluate a compile-time constant integer expression. Symbolic names are
    resolved through [env.bindings]. *)
let rec eval_const env (e : Ast.expr) : int =
  match e with
  | Ast.IntLit i -> Int64.to_int i
  | Ast.CharLit c -> Char.code c
  | Ast.Ident name -> (
      match List.assoc_opt name env.bindings with
      | Some v -> v
      | None -> error "unbound symbolic constant %s in array bound" name)
  | Ast.Unop (Ast.Neg, a) -> -eval_const env a
  | Ast.Unop (Ast.BitNot, a) -> lnot (eval_const env a)
  | Ast.Binop (op, a, b) -> (
      let a = eval_const env a and b = eval_const env b in
      match op with
      | Ast.Add -> a + b
      | Ast.Sub -> a - b
      | Ast.Mul -> a * b
      | Ast.Div -> if b = 0 then error "division by zero in constant" else a / b
      | Ast.Rem -> if b = 0 then error "division by zero in constant" else a mod b
      | Ast.Shl -> a lsl b
      | Ast.Shr -> a asr b
      | Ast.BitAnd -> a land b
      | Ast.BitOr -> a lor b
      | Ast.BitXor -> a lxor b
      | Ast.Lt -> if a < b then 1 else 0
      | Ast.Gt -> if a > b then 1 else 0
      | Ast.Le -> if a <= b then 1 else 0
      | Ast.Ge -> if a >= b then 1 else 0
      | Ast.Eq -> if a = b then 1 else 0
      | Ast.Ne -> if a <> b then 1 else 0
      | Ast.LogAnd -> if a <> 0 && b <> 0 then 1 else 0
      | Ast.LogOr -> if a <> 0 || b <> 0 then 1 else 0)
  | Ast.Cast (_, a) -> eval_const env a
  | _ -> error "expression is not a compile-time constant"

let concrete_dims env (ty : Ast.ty) : int list =
  List.map
    (function
      | Some e ->
          let n = eval_const env e in
          if n <= 0 then error "array dimension must be positive (got %d)" n;
          n
      | None -> error "unsized array dimension not supported here")
    ty.dims

(* ------------------------------------------------------------------ *)
(* Type inference                                                       *)
(* ------------------------------------------------------------------ *)

(** Integer promotion + usual arithmetic conversions, collapsed onto our
    small base-type lattice. *)
let promote (a : Ast.base_ty) (b : Ast.base_ty) : Ast.base_ty =
  let rank = function
    | Ast.Void -> 0
    | Ast.Char -> 1
    | Ast.Short -> 2
    | Ast.Int -> 3
    | Ast.Long -> 4
    | Ast.Float -> 5
    | Ast.Double -> 6
  in
  let a = if rank a < rank Ast.Int && not (Ast.is_float_base a) then Ast.Int else a in
  let b = if rank b < rank Ast.Int && not (Ast.is_float_base b) then Ast.Int else b in
  if rank a >= rank b then a else b

(** Infer the (scalar) type of an expression. Array-typed subexpressions
    only appear under [Index]; a fully-indexed array has its element type. *)
let rec infer env (e : Ast.expr) : Ast.ty =
  match e with
  | Ast.IntLit i -> Ast.lit_ty i
  | Ast.FloatLit _ -> Ast.scalar Ast.Double
  | Ast.CharLit _ -> Ast.scalar Ast.Char
  | Ast.Ident name -> (
      match lookup env name with
      | Some s -> s.s_ty
      | None ->
          if List.mem_assoc name env.bindings then Ast.int_ty
          else error "undeclared identifier %s" name)
  | Ast.Index (a, i) -> (
      let at = infer env a in
      let it = infer env i in
      if Ast.is_float_ty it then error "array index must be integral";
      match at.Ast.dims with
      | _ :: rest -> { at with Ast.dims = rest }
      | [] -> error "indexing a non-array value")
  | Ast.Unop ((Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec), a) ->
      check_lvalue env a;
      infer env a
  | Ast.Unop (Ast.Not, a) ->
      ignore (infer env a);
      Ast.int_ty
  | Ast.Unop (Ast.BitNot, a) ->
      let t = infer env a in
      if Ast.is_float_ty t then error "~ applied to floating value";
      t
  | Ast.Unop (Ast.Neg, a) -> infer env a
  | Ast.Binop (op, a, b) -> (
      let ta = infer env a and tb = infer env b in
      if Ast.is_array ta || Ast.is_array tb then
        error "arithmetic on whole arrays is not supported";
      match op with
      | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.LogAnd
      | Ast.LogOr ->
          Ast.int_ty
      | Ast.Shl | Ast.Shr | Ast.Rem | Ast.BitAnd | Ast.BitOr | Ast.BitXor ->
          if Ast.is_float_ty ta || Ast.is_float_ty tb then
            error "integer operator %s applied to floating value"
              (Ast.binop_to_string op);
          { Ast.base = promote ta.Ast.base tb.Ast.base;
            unsigned = ta.Ast.unsigned || tb.Ast.unsigned;
            dims = [] }
      | _ ->
          { Ast.base = promote ta.Ast.base tb.Ast.base;
            unsigned = ta.Ast.unsigned || tb.Ast.unsigned;
            dims = [] })
  | Ast.Assign (l, r) | Ast.OpAssign (_, l, r) ->
      check_lvalue env l;
      ignore (infer env r);
      infer env l
  | Ast.Ternary (c, t, f) ->
      ignore (infer env c);
      let tt = infer env t and tf = infer env f in
      { Ast.base = promote tt.Ast.base tf.Ast.base;
        unsigned = tt.Ast.unsigned || tf.Ast.unsigned;
        dims = [] }
  | Ast.Call (name, args) -> (
      List.iter (fun a -> ignore (infer env a)) args;
      match List.assoc_opt name env.funcs with
      | Some f -> f.Ast.f_ret
      | None -> (
          (* builtin math functions *)
          match name with
          | "sqrt" | "sqrtf" | "fabs" | "fabsf" | "exp" | "log" | "sin" | "cos"
          | "pow" | "fmax" | "fmin" | "floor" | "ceil" ->
              Ast.scalar Ast.Double
          | "abs" | "max" | "min" -> Ast.int_ty
          | _ -> error "call to undeclared function %s" name))
  | Ast.Cast (ty, a) ->
      ignore (infer env a);
      ty
  | Ast.Comma (a, b) ->
      ignore (infer env a);
      infer env b

and check_lvalue env (e : Ast.expr) =
  match e with
  | Ast.Ident name -> (
      match lookup env name with
      | Some s when Ast.is_array s.s_ty -> error "cannot assign to array %s" name
      | Some _ -> ()
      | None -> error "undeclared identifier %s" name)
  | Ast.Index (a, _) ->
      (* must ultimately index a declared array down to scalar *)
      let t = infer env e in
      if Ast.is_array t then error "partial array indexing is not an lvalue";
      ignore (infer env a)
  | _ -> error "expression is not an lvalue"

(* ------------------------------------------------------------------ *)
(* Statement / program checking                                         *)
(* ------------------------------------------------------------------ *)

let rec check_stmt env (s : Ast.stmt) =
  match s with
  | Ast.Decl (ty, name, init) ->
      let dims = if Ast.is_array ty then concrete_dims env ty else [] in
      declare env name { s_ty = ty; s_dims = dims };
      (match init with Some e -> ignore (infer env e) | None -> ())
  | Ast.Expr e -> ignore (infer env e)
  | Ast.Block ss ->
      push_scope env;
      List.iter (check_stmt env) ss;
      pop_scope env
  | Ast.If (c, t, f) -> (
      ignore (infer env c);
      check_stmt env t;
      match f with Some f -> check_stmt env f | None -> ())
  | Ast.For { init; cond; step; body; pragma } ->
      (match pragma with
      | Some p ->
          let ok = function
            | Some n -> n >= 1 && n land (n - 1) = 0
            | None -> true
          in
          if not (ok p.Ast.vectorize_width) then
            error "vectorize_width must be a positive power of two";
          if not (ok p.Ast.interleave_count) then
            error "interleave_count must be a positive power of two"
      | None -> ());
      push_scope env;
      (match init with Some s -> check_stmt env s | None -> ());
      (match cond with Some e -> ignore (infer env e) | None -> ());
      (match step with Some e -> ignore (infer env e) | None -> ());
      check_stmt env body;
      pop_scope env
  | Ast.While { w_cond = cond; w_body = body; _ } ->
      ignore (infer env cond);
      push_scope env;
      check_stmt env body;
      pop_scope env
  | Ast.Return e -> ( match e with Some e -> ignore (infer env e) | None -> ())
  | Ast.Break | Ast.Continue | Ast.Empty -> ()

(** Check a whole program. Returns the final environment (with globals and
    functions declared) for use by the lowering pass. *)
let analyze ?(bindings = []) (p : Ast.program) : env =
  let env = make_env ~bindings () in
  List.iter
    (fun d ->
      match d with
      | Ast.Global g ->
          let dims =
            if Ast.is_array g.Ast.g_ty then concrete_dims env g.Ast.g_ty else []
          in
          declare env g.Ast.g_name { s_ty = g.Ast.g_ty; s_dims = dims }
      | Ast.Func f ->
          env.funcs <- (f.Ast.f_name, f) :: env.funcs)
    p;
  List.iter
    (fun d ->
      match d with
      | Ast.Global _ -> ()
      | Ast.Func f ->
          push_scope env;
          List.iter
            (fun prm ->
              let dims =
                (* unsized leading dim is fine for params: size comes from caller *)
                List.map
                  (function
                    | Some e -> eval_const env e
                    | None -> 0)
                  prm.Ast.p_ty.Ast.dims
              in
              declare env prm.Ast.p_name { s_ty = prm.Ast.p_ty; s_dims = dims })
            f.Ast.f_params;
          List.iter (check_stmt env) f.Ast.f_body;
          pop_scope env)
    p;
  env
