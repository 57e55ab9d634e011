(** Abstract syntax tree for mini-C.

    The node shapes follow Clang's AST closely enough that code2vec-style
    path contexts extracted from this tree resemble those the paper's
    embedding generator consumed. *)

type base_ty =
  | Void
  | Char
  | Short
  | Int
  | Long
  | Float
  | Double

type ty = {
  base : base_ty;
  unsigned : bool;
  dims : expr option list;
      (** array dimensions, outermost first; [None] = unsized ([]) *)
}

and unop = Neg | Not | BitNot | PreInc | PreDec | PostInc | PostDec

and binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | BitAnd
  | BitOr
  | BitXor
  | LogAnd
  | LogOr

and expr =
  | IntLit of int64
  | FloatLit of float
  | CharLit of char
  | Ident of string
  | Index of expr * expr  (** a[i]; multi-dim arrays nest Index nodes *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr  (** lvalue = rvalue *)
  | OpAssign of binop * expr * expr  (** lvalue op= rvalue *)
  | Ternary of expr * expr * expr
  | Call of string * expr list
  | Cast of ty * expr
  | Comma of expr * expr

(** A [#pragma clang loop ...] directive attached to the loop that follows. *)
type loop_pragma = {
  vectorize_width : int option;
  interleave_count : int option;
  vectorize_enable : bool option;
}

let empty_pragma =
  { vectorize_width = None; interleave_count = None; vectorize_enable = None }

type stmt =
  | Decl of ty * string * expr option
  | Expr of expr
  | Block of stmt list
  | If of expr * stmt * stmt option
  | For of for_loop
  | While of while_loop
  | Return of expr option
  | Break
  | Continue
  | Empty

and for_loop = {
  pragma : loop_pragma option;
  init : stmt option;  (** Decl or Expr *)
  cond : expr option;
  step : expr option;
  body : stmt;
}

and while_loop = { w_pragma : loop_pragma option; w_cond : expr; w_body : stmt }

(** Variable attributes from [__attribute__((...))]. *)
type attr = Aligned of int | Noinline | OtherAttr of string

type global = {
  g_ty : ty;
  g_name : string;
  g_attrs : attr list;
  g_init : expr option;
}

type param = { p_ty : ty; p_name : string }

type func = {
  f_ret : ty;
  f_name : string;
  f_params : param list;
  f_attrs : attr list;
  f_body : stmt list;
}

type decl = Global of global | Func of func

type program = decl list

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let scalar base = { base; unsigned = false; dims = [] }
let int_ty = scalar Int
let float_ty = scalar Float

(** The type of an integer literal: C's rule for decimal literals, the
    first of [int] and [long] that holds the value. *)
let lit_ty (i : int64) : ty =
  if Int64.compare i (-0x8000_0000L) >= 0 && Int64.compare i 0x7FFF_FFFFL <= 0
  then int_ty
  else scalar Long

let is_array t = t.dims <> []
let is_float_base = function Float | Double -> true | _ -> false
let is_float_ty t = is_float_base t.base && t.dims = []

(** Size in bytes of a scalar of the given base type (LP64). *)
let base_size = function
  | Void -> 0
  | Char -> 1
  | Short -> 2
  | Int -> 4
  | Long -> 8
  | Float -> 4
  | Double -> 8

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | BitAnd -> "&"
  | BitOr -> "|"
  | BitXor -> "^"
  | LogAnd -> "&&"
  | LogOr -> "||"

let unop_to_string = function
  | Neg -> "-"
  | Not -> "!"
  | BitNot -> "~"
  | PreInc | PostInc -> "++"
  | PreDec | PostDec -> "--"

let base_ty_to_string = function
  | Void -> "void"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"

(** Structural fold counting nodes; used for code-size heuristics. *)
let rec expr_size = function
  | IntLit _ | FloatLit _ | CharLit _ | Ident _ -> 1
  | Index (a, b) | Binop (_, a, b) | Assign (a, b) | OpAssign (_, a, b) | Comma (a, b)
    ->
      1 + expr_size a + expr_size b
  | Unop (_, a) | Cast (_, a) -> 1 + expr_size a
  | Ternary (a, b, c) -> 1 + expr_size a + expr_size b + expr_size c
  | Call (_, args) -> 1 + List.fold_left (fun n a -> n + expr_size a) 0 args

let rec stmt_size = function
  | Decl (_, _, e) -> 1 + (match e with Some e -> expr_size e | None -> 0)
  | Expr e -> expr_size e
  | Block ss -> List.fold_left (fun n s -> n + stmt_size s) 1 ss
  | If (c, t, f) ->
      1 + expr_size c + stmt_size t
      + (match f with Some f -> stmt_size f | None -> 0)
  | For { init; cond; step; body; _ } ->
      1
      + (match init with Some s -> stmt_size s | None -> 0)
      + (match cond with Some e -> expr_size e | None -> 0)
      + (match step with Some e -> expr_size e | None -> 0)
      + stmt_size body
  | While { w_cond; w_body; _ } -> 1 + expr_size w_cond + stmt_size w_body
  | Return e -> 1 + (match e with Some e -> expr_size e | None -> 0)
  | Break | Continue | Empty -> 1

(** Visit every statement in a program (pre-order). *)
let rec iter_stmts f (s : stmt) =
  f s;
  match s with
  | Block ss -> List.iter (iter_stmts f) ss
  | If (_, t, fo) -> (
      iter_stmts f t;
      match fo with Some e -> iter_stmts f e | None -> ())
  | For { init; body; _ } -> (
      (match init with Some i -> iter_stmts f i | None -> ());
      iter_stmts f body)
  | While { w_body; _ } -> iter_stmts f w_body
  | _ -> ()

let iter_program_stmts f (p : program) =
  List.iter
    (function Func fn -> List.iter (iter_stmts f) fn.f_body | Global _ -> ())
    p

(** Does [s] contain a [for] loop?  A [for] whose body contains none is an
    innermost loop site: the extractor, the pragma injector and lowering
    all number sites by this test, in source order. *)
let rec has_inner_for (s : stmt) : bool =
  match s with
  | For _ -> true
  | Block ss -> List.exists has_inner_for ss
  | If (_, t, f) ->
      has_inner_for t || (match f with Some f -> has_inner_for f | None -> false)
  | While { w_body; _ } -> has_inner_for w_body
  | _ -> false
