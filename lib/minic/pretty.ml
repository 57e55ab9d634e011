(** Pretty-printer from AST back to C source.

    Printing then re-parsing yields a structurally identical AST (checked by
    a qcheck property); this is what the pragma injector relies on when it
    rewrites programs with new vectorization pragmas. *)

open Ast

let rec prec_of = function
  | Comma _ -> 1
  | Assign _ | OpAssign _ -> 2
  | Ternary _ -> 3
  | Binop (LogOr, _, _) -> 4
  | Binop (LogAnd, _, _) -> 5
  | Binop (BitOr, _, _) -> 6
  | Binop (BitXor, _, _) -> 7
  | Binop (BitAnd, _, _) -> 8
  | Binop ((Eq | Ne), _, _) -> 9
  | Binop ((Lt | Gt | Le | Ge), _, _) -> 10
  | Binop ((Shl | Shr), _, _) -> 11
  | Binop ((Add | Sub), _, _) -> 12
  | Binop ((Mul | Div | Rem), _, _) -> 13
  | Unop ((Neg | Not | BitNot | PreInc | PreDec), _) | Cast _ -> 14
  | Unop ((PostInc | PostDec), _) | Index _ | Call _ -> 15
  | IntLit _ | FloatLit _ | CharLit _ | Ident _ -> 16

and expr_to_buf buf outer e =
  let p = prec_of e in
  let parens = p < outer in
  if parens then Buffer.add_char buf '(';
  (match e with
  | IntLit i -> Buffer.add_string buf (Int64.to_string i)
  | FloatLit f ->
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string buf s;
      (* ensure it still reads as a float *)
      if
        not
          (String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s)
      then Buffer.add_string buf ".0"
  | CharLit c -> Buffer.add_string buf (Printf.sprintf "%d" (Char.code c))
  | Ident s -> Buffer.add_string buf s
  | Index (a, i) ->
      expr_to_buf buf 15 a;
      Buffer.add_char buf '[';
      expr_to_buf buf 0 i;
      Buffer.add_char buf ']'
  | Unop (PostInc, a) ->
      expr_to_buf buf 15 a;
      Buffer.add_string buf "++"
  | Unop (PostDec, a) ->
      expr_to_buf buf 15 a;
      Buffer.add_string buf "--"
  | Unop (PreInc, a) ->
      Buffer.add_string buf "++";
      expr_to_buf buf 14 a
  | Unop (PreDec, a) ->
      Buffer.add_string buf "--";
      expr_to_buf buf 14 a
  | Unop (op, a) ->
      Buffer.add_string buf (unop_to_string op);
      (* avoid "--x" (lexes as decrement) when negating a negation *)
      let tmp = Buffer.create 16 in
      expr_to_buf tmp 14 a;
      let s = Buffer.contents tmp in
      if String.length s > 0 && s.[0] = '-' && op = Neg then
        Buffer.add_char buf ' ';
      Buffer.add_string buf s
  | Binop (op, a, b) ->
      expr_to_buf buf p a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_to_string op);
      Buffer.add_char buf ' ';
      expr_to_buf buf (p + 1) b
  | Assign (l, r) ->
      expr_to_buf buf 3 l;
      Buffer.add_string buf " = ";
      expr_to_buf buf 2 r
  | OpAssign (op, l, r) ->
      expr_to_buf buf 3 l;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_to_string op);
      Buffer.add_string buf "= ";
      expr_to_buf buf 2 r
  | Ternary (c, t, f) ->
      expr_to_buf buf 4 c;
      Buffer.add_string buf " ? ";
      expr_to_buf buf 2 t;
      Buffer.add_string buf " : ";
      expr_to_buf buf 3 f
  | Call (f, args) ->
      Buffer.add_string buf f;
      Buffer.add_char buf '(';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string buf ", ";
          expr_to_buf buf 2 a)
        args;
      Buffer.add_char buf ')'
  | Cast (ty, a) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (ty_prefix ty);
      Buffer.add_char buf ')';
      Buffer.add_char buf ' ';
      expr_to_buf buf 14 a
  | Comma (a, b) ->
      expr_to_buf buf 2 a;
      Buffer.add_string buf ", ";
      expr_to_buf buf 1 b);
  if parens then Buffer.add_char buf ')'

and ty_prefix ty =
  let u = if ty.unsigned then "unsigned " else "" in
  u ^ base_ty_to_string ty.base

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_to_buf buf 0 e;
  Buffer.contents buf

let pragma_to_string (p : loop_pragma) =
  let parts = ref [] in
  (match p.interleave_count with
  | Some n -> parts := Printf.sprintf "interleave_count(%d)" n :: !parts
  | None -> ());
  (match p.vectorize_width with
  | Some n -> parts := Printf.sprintf "vectorize_width(%d)" n :: !parts
  | None -> ());
  (match p.vectorize_enable with
  | Some true -> parts := "vectorize(enable)" :: !parts
  | Some false -> parts := "vectorize(disable)" :: !parts
  | None -> ());
  "#pragma clang loop " ^ String.concat " " !parts

let indent buf n = Buffer.add_string buf (String.make (2 * n) ' ')

let dims_to_buf buf dims =
  List.iter
    (fun d ->
      Buffer.add_char buf '[';
      (match d with Some e -> expr_to_buf buf 0 e | None -> ());
      Buffer.add_char buf ']')
    dims

let rec stmt_to_buf buf lvl (s : stmt) =
  match s with
  | Decl (ty, name, init) ->
      indent buf lvl;
      Buffer.add_string buf (ty_prefix ty);
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      dims_to_buf buf ty.dims;
      (match init with
      | Some e ->
          Buffer.add_string buf " = ";
          expr_to_buf buf 2 e
      | None -> ());
      Buffer.add_string buf ";\n"
  | Expr e ->
      indent buf lvl;
      expr_to_buf buf 0 e;
      Buffer.add_string buf ";\n"
  | Block ss ->
      indent buf lvl;
      Buffer.add_string buf "{\n";
      List.iter (stmt_to_buf buf (lvl + 1)) ss;
      indent buf lvl;
      Buffer.add_string buf "}\n"
  | If (c, t, f) -> (
      indent buf lvl;
      Buffer.add_string buf "if (";
      expr_to_buf buf 0 c;
      Buffer.add_string buf ")\n";
      stmt_as_block buf lvl t;
      match f with
      | Some f ->
          indent buf lvl;
          Buffer.add_string buf "else\n";
          stmt_as_block buf lvl f
      | None -> ())
  | For { pragma; init; cond; step; body } ->
      (match pragma with
      | Some p ->
          indent buf lvl;
          Buffer.add_string buf (pragma_to_string p);
          Buffer.add_char buf '\n'
      | None -> ());
      indent buf lvl;
      Buffer.add_string buf "for (";
      (match init with
      | Some (Decl (ty, name, ie)) ->
          Buffer.add_string buf (ty_prefix ty);
          Buffer.add_char buf ' ';
          Buffer.add_string buf name;
          (match ie with
          | Some e ->
              Buffer.add_string buf " = ";
              expr_to_buf buf 2 e
          | None -> ())
      | Some (Expr e) -> expr_to_buf buf 0 e
      | Some _ | None -> ());
      Buffer.add_string buf "; ";
      (match cond with Some e -> expr_to_buf buf 0 e | None -> ());
      Buffer.add_string buf "; ";
      (match step with Some e -> expr_to_buf buf 0 e | None -> ());
      Buffer.add_string buf ")\n";
      stmt_as_block buf lvl body
  | While { w_pragma = pragma; w_cond = cond; w_body = body } ->
      (match pragma with
      | Some p ->
          indent buf lvl;
          Buffer.add_string buf (pragma_to_string p);
          Buffer.add_char buf '\n'
      | None -> ());
      indent buf lvl;
      Buffer.add_string buf "while (";
      expr_to_buf buf 0 cond;
      Buffer.add_string buf ")\n";
      stmt_as_block buf lvl body
  | Return e ->
      indent buf lvl;
      Buffer.add_string buf "return";
      (match e with
      | Some e ->
          Buffer.add_char buf ' ';
          expr_to_buf buf 0 e
      | None -> ());
      Buffer.add_string buf ";\n"
  | Break ->
      indent buf lvl;
      Buffer.add_string buf "break;\n"
  | Continue ->
      indent buf lvl;
      Buffer.add_string buf "continue;\n"
  | Empty ->
      indent buf lvl;
      Buffer.add_string buf ";\n"

and stmt_as_block buf lvl s =
  match s with
  | Block _ -> stmt_to_buf buf lvl s
  | _ -> stmt_to_buf buf (lvl + 1) s

let attr_to_string = function
  | Aligned n -> Printf.sprintf "aligned(%d)" n
  | Noinline -> "noinline"
  | OtherAttr s -> s

let attrs_to_string attrs =
  if attrs = [] then ""
  else
    Printf.sprintf "__attribute__((%s)) "
      (String.concat ", " (List.map attr_to_string attrs))

let decl_to_buf buf (d : decl) =
  match d with
  | Global g ->
      Buffer.add_string buf (ty_prefix g.g_ty);
      Buffer.add_char buf ' ';
      Buffer.add_string buf g.g_name;
      dims_to_buf buf g.g_ty.dims;
      if g.g_attrs <> [] then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf (String.trim (attrs_to_string g.g_attrs))
      end;
      (match g.g_init with
      | Some e ->
          Buffer.add_string buf " = ";
          expr_to_buf buf 2 e
      | None -> ());
      Buffer.add_string buf ";\n"
  | Func f ->
      Buffer.add_string buf (attrs_to_string f.f_attrs);
      Buffer.add_string buf (ty_prefix f.f_ret);
      Buffer.add_char buf ' ';
      Buffer.add_string buf f.f_name;
      Buffer.add_char buf '(';
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (ty_prefix p.p_ty);
          Buffer.add_char buf ' ';
          Buffer.add_string buf p.p_name;
          dims_to_buf buf p.p_ty.dims)
        f.f_params;
      Buffer.add_string buf ") {\n";
      List.iter (stmt_to_buf buf 1) f.f_body;
      Buffer.add_string buf "}\n"

let program_to_string (p : program) =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf '\n';
      decl_to_buf buf d)
    p;
  Buffer.contents buf
