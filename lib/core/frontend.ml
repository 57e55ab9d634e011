(** Compiled front-end artifacts.

    Every oracle client (PPO training, brute force, NNS, the decision tree)
    evaluates ~35 actions per program, and each evaluation used to re-run
    the whole front end on freshly pretty-printed text.  Parsing and
    semantic analysis depend only on the program source and its symbolic
    bindings — not on the pragma decision under evaluation — so we do them
    once, cache the checked AST keyed by a content hash, and let
    {!Pipeline} apply pragma decisions directly on the cached AST.

    The caches are process-global and content-addressed: two [Program.t]
    values with identical source and bindings (regardless of name, kernel
    or family) share one artifact.  Each is a {!Memo} table — sharded,
    first-commit-wins, bounded by [NEUROVEC_FRONTEND_CAP] entries and
    counted — so a long-lived daemon serving an unbounded stream of
    distinct programs cannot grow them without limit. *)

(** Raised for any malformed program: parse errors, semantic errors, and
    (via {!Pipeline}) lowering failures.  [Pipeline.Compile_error] is a
    re-export of this exception, so existing handlers keep working. *)
exception Compile_error of string

type artifact = {
  a_hash : string;  (** content hash of (source, bindings) *)
  a_ast : Minic.Ast.program;  (** parsed and sema-checked, pragmas intact *)
}

(** Content hash of a program's source and bindings (name/kernel/family are
    metadata the front end never sees). *)
let hash_program (p : Dataset.Program.t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          (p.Dataset.Program.p_source
          :: List.concat_map
               (fun (k, v) -> [ k; string_of_int v ])
               p.Dataset.Program.p_bindings)))

(** A program's shared pre-vectorization artifact: the pragma-free module
    after lower + LICM/CSE/LICM (everything an action sweep does before the
    planner), plus the per-loop analyses the planner needs.  [pv_modul] and
    [pv_preps] are {e never mutated}: every consumer takes an
    [Ir.copy_modul] and transforms the copy, so one artifact serves every
    plan ever evaluated on the same content ({!Pipeline.eval_planned}). *)
type prevec = {
  pv_hash : string;  (** content hash + polly flag *)
  pv_modul : Ir.modul;  (** pristine; consumers must copy before mutating *)
  pv_preps : Vectorizer.Planner.prep list;
}

(** The key of the artifact of content hash [hash] in the prevec table,
    which is also its [pv_hash]. *)
let prevec_key ~(polly : bool) (hash : string) : string =
  hash ^ if polly then "|polly=true" else "|polly=false"

let cap = Memo.cap_of_env "NEUROVEC_FRONTEND_CAP" ~default:16384

let artifacts : artifact Memo.t = Memo.create ~name:"artifact" ~cap
let prevecs : prevec Memo.t = Memo.create ~name:"prevec" ~cap

(* scalar reference modules for the translation validator: the plain,
   unoptimized lowering of the checked AST, keyed by content hash *)
let scalar_refs : Ir.modul Memo.t = Memo.create ~name:"scalar-ref" ~cap

(** The artifact table's capacity per shard. *)
let shard_capacity () : int =
  max 1 ((Memo.stats artifacts).Memo.cap / Memo.n_shards)

(** Empty every content-addressed table in the process ({!Memo.clear_all}):
    the front end's and every cache downstream of it. *)
let clear () : unit = Memo.clear_all ()

let size () : int = (Memo.stats artifacts).Memo.size

(** Parse and sema-check [p], wrapping front-end failures in
    {!Compile_error} (timed under [Stats.Parse] / [Stats.Sema]). *)
let parse_checked (p : Dataset.Program.t) : Minic.Ast.program =
  let prog =
    Stats.time Stats.Parse (fun () ->
        try Minic.Parser.parse_string p.Dataset.Program.p_source
        with Minic.Parser.Error (msg, pos) ->
          raise
            (Compile_error
               (Printf.sprintf "%s: parse error at %d:%d: %s"
                  p.Dataset.Program.p_name pos.Minic.Token.line
                  pos.Minic.Token.col msg)))
  in
  Stats.time Stats.Sema (fun () ->
      try
        ignore (Minic.Sema.analyze ~bindings:p.Dataset.Program.p_bindings prog)
      with Minic.Sema.Error msg ->
        raise
          (Compile_error
             (Printf.sprintf "%s: %s" p.Dataset.Program.p_name msg)));
  prog

(** The checked AST for [p], parsed and analyzed at most once per distinct
    (source, bindings) content.  Malformed programs are not cached; every
    attempt re-raises {!Compile_error}.  [hash] is [p]'s
    {!hash_program}, when the caller already has it. *)
let checked ?hash (p : Dataset.Program.t) : artifact =
  let h = match hash with Some h -> h | None -> hash_program p in
  Memo.find_or_add artifacts h (fun () ->
      { a_hash = h; a_ast = parse_checked p })

(** The shared pre-vectorization artifact for [p]: pragma-free lowering +
    Polly (when [polly]) + LICM/CSE/LICM + per-loop planner analyses,
    computed at most once per distinct (source, bindings, polly) content.
    Lowering failures are not cached (each attempt re-raises
    {!Compile_error} with the asking program's name, matching the
    per-action pipeline's error text).

    Like every {!Memo} table, the mid-end runs outside the table's locks;
    it is deterministic, so racing domains build bit-identical artifacts.
    [key] is [prevec_key ~polly a.a_hash], when the caller already has
    it. *)
let prevec_of ?(polly = false) ?key (p : Dataset.Program.t) (a : artifact) :
    prevec =
  let h = match key with Some k -> k | None -> prevec_key ~polly a.a_hash in
  Memo.find_or_add prevecs h (fun () ->
      (* strip the sites' source pragmas: a plan addresses each site by
         its [l_site], and the baseline is "existing pragmas removed" *)
      let ast = Injector.inject_ast a.a_ast ~decisions:[] in
      let m =
        Stats.time Stats.Lower (fun () ->
            try
              Ir_lower.lower_program ~bindings:p.Dataset.Program.p_bindings
                ast
            with Ir_lower.Error msg ->
              raise
                (Compile_error
                   (Printf.sprintf "%s: %s" p.Dataset.Program.p_name msg)))
      in
      if polly then
        Stats.time Stats.Polly (fun () -> ignore (Polly.Driver.optimize m));
      Stats.time Stats.Scalar_opt (fun () ->
          ignore (Vectorizer.Licm.run_modul m);
          ignore (Vectorizer.Cse.run_modul m);
          ignore (Vectorizer.Licm.run_modul m));
      let preps =
        Stats.time Stats.Vectorize (fun () ->
            Vectorizer.Planner.prepare_modul m)
      in
      { pv_hash = h; pv_modul = m; pv_preps = preps })

(** As {!prevec_of}, checking the front end first (exactly one front-end
    lookup, like the per-action entry points). *)
let prevec ?polly (p : Dataset.Program.t) : prevec =
  prevec_of ?polly p (checked p)

(** The scalar reference module for [p]: the checked AST lowered as-is —
    pragmas intact, no Polly, no mid-end passes, no vectorizer — the
    ground truth the translation validator ({!Verify.Tv}) interprets
    against every transformed module of the program.  Never mutated:
    consumers only interpret it (the interpreter allocates its own
    memory), so one module serves every plan of every sweep. *)
let scalar_ref_of (p : Dataset.Program.t) (a : artifact) : Ir.modul =
  Memo.find_or_add scalar_refs a.a_hash (fun () ->
      Stats.time Stats.Lower (fun () ->
          try
            Ir_lower.lower_program ~bindings:p.Dataset.Program.p_bindings
              a.a_ast
          with Ir_lower.Error msg ->
            raise
              (Compile_error
                 (Printf.sprintf "%s: %s" p.Dataset.Program.p_name msg))))
