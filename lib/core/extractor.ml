(** The automatic loop extractor (Figure 3, first stage).

    Reads program text, finds every innermost [for] loop, and pairs it with
    the statement fed to the code-embedding generator. Per the paper's
    Section 3.3 ablation, for nested loops the embedding input is the body
    of the *outermost* enclosing loop (which contains the inner bodies),
    not the innermost loop alone.

    A site's [ordinal] is its address everywhere: the injector attaches
    decision [k] to site [k], and lowering records [k] as the [l_site] of
    the {!Ir.loop} the site becomes, so the pipeline's planned path can
    apply the same decision without injecting it.  All three number sites
    with {!Minic.Ast.has_inner_for}, in source order. *)

type loop_site = {
  ordinal : int;  (** index among innermost for-loops, in source order *)
  innermost : Minic.Ast.for_loop;
  context : Minic.Ast.stmt;  (** outermost enclosing loop (embedding input) *)
}

(** Innermost for-loops of a statement, each with the outermost for that
    contains it. *)
let rec sites_of_stmt ?(outer : Minic.Ast.stmt option) (s : Minic.Ast.stmt) :
    (Minic.Ast.for_loop * Minic.Ast.stmt) list =
  match s with
  | Minic.Ast.For f ->
      let this_outer = match outer with Some o -> o | None -> s in
      if Minic.Ast.has_inner_for f.Minic.Ast.body then
        sites_of_stmt ~outer:this_outer f.Minic.Ast.body
      else [ (f, this_outer) ]
  | Minic.Ast.Block ss -> List.concat_map (sites_of_stmt ?outer) ss
  | Minic.Ast.If (_, t, fo) ->
      sites_of_stmt ?outer t
      @ (match fo with Some f -> sites_of_stmt ?outer f | None -> [])
  | Minic.Ast.While { Minic.Ast.w_body; _ } ->
      (* loops under a while keep the while out of the context: the
         vectorizer cannot touch the while anyway *)
      sites_of_stmt ?outer w_body
  | _ -> []

(** Extract all loop sites of a program, in source order. *)
let extract (prog : Minic.Ast.program) : loop_site list =
  let sites =
    List.concat_map
      (function
        | Minic.Ast.Func f ->
            List.concat_map (fun s -> sites_of_stmt s) f.Minic.Ast.f_body
        | Minic.Ast.Global _ -> [])
      prog
  in
  List.mapi
    (fun i (innermost, context) -> { ordinal = i; innermost; context })
    sites

let extract_source (source : string) : loop_site list =
  extract (Minic.Parser.parse_string source)

(** The pragmas written in a program's source, as per-site decisions:
    each site that carries one, with its ordinal. *)
let pragmas (prog : Minic.Ast.program) : (int * Minic.Ast.loop_pragma) list =
  List.filter_map
    (fun s ->
      Option.map (fun pr -> (s.ordinal, pr)) s.innermost.Minic.Ast.pragma)
    (extract prog)

(** The embedding input for a whole program: the first loop's context, or
    the first function body when the program has no loops. *)
let embedding_stmt (prog : Minic.Ast.program) : Minic.Ast.stmt =
  match extract prog with
  | { context; _ } :: _ -> context
  | [] -> (
      match
        List.find_map
          (function Minic.Ast.Func f -> Some f | _ -> None)
          prog
      with
      | Some f -> Minic.Ast.Block f.Minic.Ast.f_body
      | None -> Minic.Ast.Empty)
