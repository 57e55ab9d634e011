(** AST path-context extraction, following code2vec (Alon et al., 2019).

    A code snippet is decomposed into (left terminal, syntactic path,
    right terminal) triples: for every pair of AST leaves, the path is the
    sequence of node kinds walked from one leaf up to their lowest common
    ancestor and down to the other. The paper feeds loop bodies (the most
    *outer* loop's body for nests — its ablation found that beats
    inner-only) through this extraction. *)

type tree = { label : string; children : tree list }

let leaf label = { label; children = [] }

(* ------------------------------------------------------------------ *)
(* Mini-C AST -> generic tree                                           *)
(* ------------------------------------------------------------------ *)

let rec tree_of_expr (e : Minic.Ast.expr) : tree =
  match e with
  | Minic.Ast.IntLit i ->
      { label = "IntLit"; children = [ leaf (Int64.to_string i) ] }
  | Minic.Ast.FloatLit f ->
      { label = "FloatLit"; children = [ leaf (Printf.sprintf "%g" f) ] }
  | Minic.Ast.CharLit c ->
      { label = "CharLit"; children = [ leaf (String.make 1 c) ] }
  | Minic.Ast.Ident name -> { label = "Ident"; children = [ leaf name ] }
  | Minic.Ast.Index (a, i) ->
      { label = "Index"; children = [ tree_of_expr a; tree_of_expr i ] }
  | Minic.Ast.Unop (op, a) ->
      { label = "Unop_" ^ Minic.Ast.unop_to_string op;
        children = [ tree_of_expr a ] }
  | Minic.Ast.Binop (op, a, b) ->
      { label = "Binop_" ^ Minic.Ast.binop_to_string op;
        children = [ tree_of_expr a; tree_of_expr b ] }
  | Minic.Ast.Assign (l, r) ->
      { label = "Assign"; children = [ tree_of_expr l; tree_of_expr r ] }
  | Minic.Ast.OpAssign (op, l, r) ->
      { label = "OpAssign_" ^ Minic.Ast.binop_to_string op;
        children = [ tree_of_expr l; tree_of_expr r ] }
  | Minic.Ast.Ternary (c, t, f) ->
      { label = "Ternary";
        children = [ tree_of_expr c; tree_of_expr t; tree_of_expr f ] }
  | Minic.Ast.Call (f, args) ->
      { label = "Call"; children = leaf f :: List.map tree_of_expr args }
  | Minic.Ast.Cast (ty, a) ->
      { label = "Cast_" ^ Minic.Ast.base_ty_to_string ty.Minic.Ast.base;
        children = [ tree_of_expr a ] }
  | Minic.Ast.Comma (a, b) ->
      { label = "Comma"; children = [ tree_of_expr a; tree_of_expr b ] }

let rec tree_of_stmt (s : Minic.Ast.stmt) : tree =
  match s with
  | Minic.Ast.Decl (ty, name, init) ->
      { label = "Decl_" ^ Minic.Ast.base_ty_to_string ty.Minic.Ast.base;
        children =
          (leaf name
           :: (match init with Some e -> [ tree_of_expr e ] | None -> [])) }
  | Minic.Ast.Expr e -> { label = "ExprStmt"; children = [ tree_of_expr e ] }
  | Minic.Ast.Block ss -> { label = "Block"; children = List.map tree_of_stmt ss }
  | Minic.Ast.If (c, t, f) ->
      { label = "If";
        children =
          (tree_of_expr c :: tree_of_stmt t
           :: (match f with Some f -> [ tree_of_stmt f ] | None -> [])) }
  | Minic.Ast.For { init; cond; step; body; _ } ->
      { label = "For";
        children =
          List.filter_map Fun.id
            [ Option.map tree_of_stmt init;
              Option.map tree_of_expr cond;
              Option.map tree_of_expr step;
              Some (tree_of_stmt body) ] }
  | Minic.Ast.While { Minic.Ast.w_cond; w_body; _ } ->
      { label = "While"; children = [ tree_of_expr w_cond; tree_of_stmt w_body ] }
  | Minic.Ast.Return e ->
      { label = "Return";
        children = (match e with Some e -> [ tree_of_expr e ] | None -> []) }
  | Minic.Ast.Break -> leaf "Break"
  | Minic.Ast.Continue -> leaf "Continue"
  | Minic.Ast.Empty -> leaf "Empty"

(* ------------------------------------------------------------------ *)
(* Path contexts                                                        *)
(* ------------------------------------------------------------------ *)

type context = { left : string; path : string; right : string }

(** All leaves with their root paths (list of interior labels, root last). *)
let leaves_with_paths (t : tree) : (string * string list) list =
  let acc = ref [] in
  let rec go path node =
    match node.children with
    | [] -> acc := (node.label, path) :: !acc
    | cs -> List.iter (go (node.label :: path)) cs
  in
  go [] t;
  List.rev !acc

(** Path between two leaves through their LCA, as an arrow-separated kind
    string ("Ident^Index^Assign_Index!Ident" style). *)
let path_between (pa : string list) (pb : string list) : string =
  (* root-last lists; strip the common suffix *)
  let ra = List.rev pa and rb = List.rev pb in
  let rec strip a b =
    match (a, b) with
    | x :: a', y :: b' when x = y -> (
        match (a', b') with
        | [], _ | _, [] -> (x :: a', x :: b')  (* keep the LCA itself *)
        | x' :: _, y' :: _ when x' = y' -> strip a' b'
        | _ -> (a', b'))
    | _ -> (a, b)
  in
  let up_rev, down = strip ra rb in
  let up = List.rev up_rev in
  String.concat "^" up ^ "!" ^ String.concat "_" down

(** Extract up to [max_contexts] path contexts with path length at most
    [max_path]. Selection is deterministic: the qualifying leaf pairs are
    enumerated in leaf order and sampled evenly — of [total] pairs, pair
    number [k * total / max_contexts] for each [k], or every pair when
    [total <= max_contexts].  Pairs are counted first, from the leaves'
    root-path lengths, so a path string is built only for a kept pair. *)
let extract ?(max_contexts = 24) ?(max_path = 9) (t : tree) : context list =
  let leaves = Array.of_list (leaves_with_paths t) in
  let n = Array.length leaves in
  let lens = Array.map (fun (_, p) -> List.length p) leaves in
  let qualifies i j = lens.(i) + lens.(j) <= 2 * max_path in
  let total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if qualifies i j then incr total
    done
  done;
  let total = !total in
  let kept = min total max_contexts in
  (* ordinal of the [k]th kept pair; strictly increasing in [k] *)
  let pick k = if total <= max_contexts then k else k * total / max_contexts in
  let out = ref [] and k = ref 0 and q = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !k < kept && qualifies i j then begin
        if !q = pick !k then begin
          let la, pa = leaves.(i) and lb, pb = leaves.(j) in
          out := { left = la; path = path_between pa pb; right = lb } :: !out;
          incr k
        end;
        incr q
      end
    done
  done;
  List.rev !out

(** Contexts of a loop statement (the paper's unit of embedding). *)
let contexts_of_stmt ?max_contexts ?max_path (s : Minic.Ast.stmt) : context list
    =
  extract ?max_contexts ?max_path (tree_of_stmt s)
