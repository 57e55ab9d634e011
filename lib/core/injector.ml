(** The pragma injector (Figure 4): rewrites program text with
    [#pragma clang loop vectorize_width(VF) interleave_count(IF)] lines in
    front of chosen innermost loops.

    Injection is AST-based (parse, attach, pretty-print), which guarantees
    the pragma lands on the innermost loop of a nest exactly as Section 3
    describes, and cannot corrupt the program text. *)

(** Attach each decision's pragma to the innermost for-loop of its
    ordinal (source order) and clear every other innermost loop's
    pragma, so the program asks exactly what [decisions] ask. *)
let inject_ast (prog : Minic.Ast.program)
    ~(decisions : (int * Minic.Ast.loop_pragma) list) : Minic.Ast.program =
  let counter = ref (-1) in
  let rec stmt (s : Minic.Ast.stmt) : Minic.Ast.stmt =
    match s with
    | Minic.Ast.For f ->
        let body = stmt f.Minic.Ast.body in
        if Minic.Ast.has_inner_for f.Minic.Ast.body then
          Minic.Ast.For { f with Minic.Ast.body }
        else begin
          incr counter;
          Minic.Ast.For
            { f with Minic.Ast.body;
              pragma = List.assoc_opt !counter decisions }
        end
    | Minic.Ast.Block ss -> Minic.Ast.Block (List.map stmt ss)
    | Minic.Ast.If (c, t, f) -> Minic.Ast.If (c, stmt t, Option.map stmt f)
    | Minic.Ast.While w ->
        Minic.Ast.While { w with Minic.Ast.w_body = stmt w.Minic.Ast.w_body }
    | other -> other
  in
  List.map
    (function
      | Minic.Ast.Func f ->
          Minic.Ast.Func { f with Minic.Ast.f_body = List.map stmt f.Minic.Ast.f_body }
      | g -> g)
    prog

let pragma_of ~vf ~if_ : Minic.Ast.loop_pragma =
  { Minic.Ast.vectorize_width = Some vf; interleave_count = Some if_;
    vectorize_enable = None }

(** Source-to-source injection: returns the rewritten program text. *)
let inject_source (source : string)
    ~(decisions : (int * Minic.Ast.loop_pragma) list) : string =
  let prog = Minic.Parser.parse_string source in
  Minic.Pretty.program_to_string (inject_ast prog ~decisions)

(** AST-level convenience: same (vf, if) pragma on every innermost loop. *)
let inject_all_ast (prog : Minic.Ast.program) ~vf ~if_ : Minic.Ast.program =
  let n = List.length (Extractor.extract prog) in
  let decisions = List.init n (fun i -> (i, pragma_of ~vf ~if_)) in
  inject_ast prog ~decisions

(** Convenience: same (vf, if) pragma on every innermost loop. *)
let inject_all (source : string) ~vf ~if_ : string =
  let prog = Minic.Parser.parse_string source in
  Minic.Pretty.program_to_string (inject_all_ast prog ~vf ~if_)
