(** A legality fuzzer: generate loops biased toward dependence
    boundaries, vectorize them with plans {!Vectorizer.Legality.clamp}
    accepts, and ask {!Tv} whether the transform preserved semantics.

    The generator deliberately concentrates on the shapes where the
    distance-vector dependence test earns (or loses) its keep: tight reuse
    distances (loop-carried reads at distance < VF), stores read ahead of
    the writer, float reductions whose value order a vectorizer
    reassociates, aliasing store pairs, and mixed-stride gathers.  Every
    case is deterministic in the seed — same seed, same programs, same
    plans, same verdicts — so a refutation found in CI reproduces locally
    with [neurovec fuzz --legality --seed N].

    This is self-contained on purpose: it parses, lowers and transforms
    through the same passes the pipeline's shared-artifact path uses
    (LICM/CSE/LICM, [prepare_modul] + [run_prepared], LICM) and keys
    {!Tv}'s scalar-run cache by source digest, so a fuzz run cannot
    perturb (or be perturbed by) reward sweeps in the same process. *)

type case = {
  c_program : Dataset.Program.t;
  c_vf : int;  (** requested vectorization factor (pre-clamp) *)
  c_if : int;  (** requested interleave count (pre-clamp) *)
}

type refutation = {
  r_name : string;
  r_source : string;
  r_vf : int;
  r_if : int;
  r_applied : string;  (** per-loop applied plans after clamping *)
  r_cx : string;  (** rendered {!Tv.counterexample} *)
}

(* ------------------------------------------------------------------ *)
(* Dependence-boundary loop families                                    *)
(* ------------------------------------------------------------------ *)

(* Each generator returns (globals, loop body, return expression); bounds
   stay small so a verification (4 inputs x 2 interpreter runs) is cheap
   enough for thousands of fuzz iterations. *)

(* A body generator writes one loop over [i] for a shape: a flat loop of
   [sh_n] iterations, or ([sh_rows] > 0) the same loop inside an outer
   loop over [o], every array gaining an outer dimension indexed by [o].
   [decls] are the kernel's locals, [loop] the loop nest, [ret] the
   returned expression. *)
type pieces = {
  globals : string list;
  decls : string;
  loop : string;
  ret : string;
}

type shape = { sh_n : int; sh_rows : int }

let pick_n (rng : Nn.Rng.t) : int = 64 + Nn.Rng.int rng 64

let flat rng = { sh_n = pick_n rng; sh_rows = 0 }

(* array declarations, accesses in the loop, and accesses in the
   returned expression (the middle row of a nest) *)
let decl sh ty name size =
  if sh.sh_rows = 0 then Printf.sprintf "%s %s[%d];" ty name size
  else Printf.sprintf "%s %s[%d][%d];" ty name sh.sh_rows size

let at sh name e =
  if sh.sh_rows = 0 then Printf.sprintf "%s[%s]" name e
  else Printf.sprintf "%s[o][%s]" name e

let at_ret sh name e =
  if sh.sh_rows = 0 then Printf.sprintf "%s[%s]" name e
  else Printf.sprintf "%s[%d][%s]" name (sh.sh_rows / 2) e

let for_i lo hi stmts =
  Printf.sprintf "  for (i = %s; i < %d; i++) {\n%s\n  }" lo hi
    (String.concat "\n" (List.map (fun st -> "    " ^ st) stmts))

(* loop-carried flow dependence at a tight distance: a[i] = a[i-d] + c *)
let gen_recurrence rng sh =
  let n = sh.sh_n in
  let d = 1 + Nn.Rng.int rng 8 in
  let c = 1 + Nn.Rng.int rng 5 in
  { globals = [ decl sh "int" "a" (n + d) ];
    decls = "  int i;";
    loop =
      for_i (string_of_int d) n
        [ Printf.sprintf "%s = %s + %d;" (at sh "a" "i")
            (at sh "a" (Printf.sprintf "i - %d" d)) c ];
    ret = at_ret sh "a" (string_of_int (n - 1)) }

(* a store read ahead of the writer by a later statement: widening runs
   all of the store's lanes before the load's, so VF > k reads new values
   the scalar loop would not have seen yet *)
let gen_store_load_ahead rng sh =
  let n = sh.sh_n in
  let k = 1 + Nn.Rng.int rng 4 in
  { globals = List.map (fun a -> decl sh "int" a (n + k)) [ "a"; "b"; "c" ];
    decls = "  int i;";
    loop =
      for_i "0" n
        [ Printf.sprintf "%s = %s * 2;" (at sh "a" "i") (at sh "b" "i");
          Printf.sprintf "%s = %s + 1;" (at sh "c" "i")
            (at sh "a" (Printf.sprintf "i + %d" k)) ];
    ret =
      Printf.sprintf "%s + %s"
        (at_ret sh "c" (string_of_int (n / 2)))
        (at_ret sh "a" (string_of_int (n / 3))) }

(* the mirror image: a load of a cell a later statement stores (anti
   dependence across statements) *)
let gen_load_store_behind rng sh =
  let n = sh.sh_n in
  let k = 1 + Nn.Rng.int rng 4 in
  { globals = List.map (fun a -> decl sh "int" a (n + k)) [ "a"; "b" ];
    decls = "  int i;";
    loop =
      for_i "0" n
        [ Printf.sprintf "%s = %s - 1;" (at sh "b" "i")
            (at sh "a" (Printf.sprintf "i + %d" k));
          Printf.sprintf "%s = %s + 3;" (at sh "a" "i") (at sh "b" "i") ];
    ret =
      Printf.sprintf "%s + %s"
        (at_ret sh "a" (string_of_int (n / 2)))
        (at_ret sh "b" (string_of_int (n / 4))) }

(* float reduction: reassociation under vectorization must stay within
   the documented tolerance, never outside it *)
let gen_float_reduction rng sh =
  let n = sh.sh_n in
  let ty = if Nn.Rng.int rng 2 = 0 then "float" else "double" in
  let form = Nn.Rng.int rng 2 in
  let x = at sh "x" "i" and y = at sh "y" "i" in
  let update =
    if form = 0 then Printf.sprintf "s += %s * %s;" x y
    else Printf.sprintf "s += %s + %s;" x y
  in
  { globals = [ decl sh ty "x" n; decl sh ty "y" n ];
    decls = Printf.sprintf "  %s s = 0;\n  int i;" ty;
    loop = for_i "0" n [ update ];
    ret = "(int) s" }

(* two stores to the same array at offset k: an output dependence whose
   final writer must survive widening *)
let gen_aliasing_stores rng sh =
  let n = sh.sh_n in
  let k = 1 + Nn.Rng.int rng 4 in
  { globals = List.map (fun a -> decl sh "int" a (n + k)) [ "a"; "b"; "c" ];
    decls = "  int i;";
    loop =
      for_i "0" n
        [ Printf.sprintf "%s = %s + 1;" (at sh "a" "i") (at sh "b" "i");
          Printf.sprintf "%s = %s * 2;"
            (at sh "a" (Printf.sprintf "i + %d" k))
            (at sh "c" "i") ];
    ret =
      Printf.sprintf "%s + %s"
        (at_ret sh "a" (string_of_int (n / 2)))
        (at_ret sh "a" (string_of_int (n - 1))) }

(* mixed-stride gather: strides 2 and 3 off one source array *)
let gen_mixed_stride _rng sh =
  let n = sh.sh_n in
  { globals = [ decl sh "int" "d" n; decl sh "int" "s" ((3 * n) + 2) ];
    decls = "  int i;";
    loop =
      for_i "0" n
        [ Printf.sprintf "%s = %s + %s;" (at sh "d" "i") (at sh "s" "3 * i")
            (at sh "s" "2 * i + 1") ];
    ret = at_ret sh "d" (string_of_int (n / 2)) }

let bodies =
  [| ("recurrence", gen_recurrence);
     ("store_load_ahead", gen_store_load_ahead);
     ("load_store_behind", gen_load_store_behind);
     ("float_reduction", gen_float_reduction);
     ("aliasing_stores", gen_aliasing_stores);
     ("mixed_stride", gen_mixed_stride) |]

(* a depth-2 nest around one of the bodies above: 2..4 rows, and an inner
   trip count of 64..127, so the remainder a plan leaves hits every
   residue mod VF*IF (at most 64), not only multiples of 8 *)
let gen_nest rng =
  let _, gen = Nn.Rng.choose rng bodies in
  let rows = 2 + Nn.Rng.int rng 3 in
  let p = gen rng { sh_n = 64 + Nn.Rng.int rng 64; sh_rows = rows } in
  { p with
    decls = p.decls ^ "\n  int o;";
    loop =
      Printf.sprintf "  for (o = 0; o < %d; o++) {\n%s\n  }" rows p.loop }

let families =
  Array.append
    (Array.map (fun (name, gen) -> (name, fun rng -> gen rng (flat rng))) bodies)
    [| ("nest", gen_nest) |]

let vf_pool = [| 2; 4; 8; 16 |]
let if_pool = [| 1; 2; 4 |]

let gen_case (rng : Nn.Rng.t) (idx : int) : case =
  let family, gen = Nn.Rng.choose rng families in
  let p = gen rng in
  let source =
    Printf.sprintf "%s\n\nint kernel() {\n%s\n%s\n  return %s;\n}\n"
      (String.concat "\n" p.globals)
      p.decls p.loop p.ret
  in
  { c_program =
      Dataset.Program.make ~family
        (Printf.sprintf "fuzz_%s_%05d" family idx)
        source;
    c_vf = Nn.Rng.choose rng vf_pool;
    c_if = Nn.Rng.choose rng if_pool }

(** [n] dependence-boundary cases, deterministic in [seed]. *)
let generate ~(seed : int) (n : int) : case array =
  let rng = Nn.Rng.create seed in
  Array.init n (fun i -> gen_case rng i)

(* ------------------------------------------------------------------ *)
(* The oracle                                                           *)
(* ------------------------------------------------------------------ *)

let plans_sig (report : Vectorizer.Planner.report) : string =
  String.concat ";"
    (List.map
       (fun d ->
         Printf.sprintf "%d,%d"
           d.Vectorizer.Planner.d_applied.Vectorizer.Transform.vf
           d.Vectorizer.Planner.d_applied.Vectorizer.Transform.if_)
       report)

(** Vectorize [p] under the requested (vf, if) — clamped by legality,
    exactly as the pipeline's shared-artifact path does — and return the
    translation-validation verdict plus the applied plans.  Raises
    whatever the front end raises on a malformed program (the generators
    never produce one). *)
let check (p : Dataset.Program.t) ~(vf : int) ~(if_ : int) :
    Tv.verdict * string =
  let bindings = p.Dataset.Program.p_bindings in
  let prog = Minic.Parser.parse_string p.Dataset.Program.p_source in
  ignore (Minic.Sema.analyze ~bindings prog);
  let scalar = Ir_lower.lower_program ~bindings prog in
  let m = Ir_lower.lower_program ~bindings prog in
  ignore (Vectorizer.Licm.run_modul m);
  ignore (Vectorizer.Cse.run_modul m);
  ignore (Vectorizer.Licm.run_modul m);
  let preps = Vectorizer.Planner.prepare_modul m in
  let report =
    Vectorizer.Planner.run_prepared
      ~plan:(Some { Vectorizer.Transform.vf; if_ })
      m preps
  in
  ignore (Vectorizer.Licm.run_modul m);
  let psig = plans_sig report in
  let kernel = p.Dataset.Program.p_kernel in
  (* content-addressed, never the program name: fuzz names repeat across
     seeds (fuzz_<family>_00003 exists for every seed), and Tv's
     scalar-run cache must not serve one seed's reference to another's *)
  let src_hash = Digest.to_hex (Digest.string p.Dataset.Program.p_source) in
  let key =
    Printf.sprintf "%s|%s|vf=%d,if=%d|%s" src_hash kernel vf if_ psig
  in
  (Tv.verify ~key ~scalar ~scalar_key:(src_hash ^ "|" ^ kernel) ~kernel m, psig)

type hunt_stats = {
  hs_requested : int;  (** iterations asked for *)
  hs_ran : int;  (** cases actually executed before any deadline *)
  hs_elapsed_s : float;  (** wall seconds spent *)
  hs_deadline_hit : bool;  (** the hunt was truncated by [deadline_s] *)
  hs_families : (string * int) list;
      (** cases run per dependence-boundary family, sorted by name — CI
          logs show coverage, not just pass/fail *)
}

(** Run [iterations] fuzz cases from [seed]; returns the refutations and
    coverage statistics.  [deadline_s] (wall seconds) only truncates the
    iteration count — verdicts of the cases that do run are bit-identical
    whatever the deadline, so a CI-bounded hunt that finds a refutation
    reproduces by seed. *)
let hunt ?(deadline_s : float option) ~(seed : int) ~(iterations : int) () :
    refutation list * hunt_stats =
  let t0 = Unix.gettimeofday () in
  let cases = generate ~seed iterations in
  let refuted = ref [] in
  let ran = ref 0 in
  let deadline_hit = ref false in
  let fam_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (try
     Array.iter
       (fun c ->
         (match deadline_s with
         | Some d when Unix.gettimeofday () -. t0 > d ->
             deadline_hit := true;
             raise Exit
         | _ -> ());
         incr ran;
         let fam = c.c_program.Dataset.Program.p_family in
         Hashtbl.replace fam_counts fam
           (1 + Option.value ~default:0 (Hashtbl.find_opt fam_counts fam));
         match check c.c_program ~vf:c.c_vf ~if_:c.c_if with
         | Tv.Equivalent, _ -> ()
         | Tv.Refuted cx, psig ->
             refuted :=
               { r_name = c.c_program.Dataset.Program.p_name;
                 r_source = c.c_program.Dataset.Program.p_source;
                 r_vf = c.c_vf; r_if = c.c_if; r_applied = psig;
                 r_cx = Tv.render cx }
               :: !refuted)
       cases
   with Exit -> ());
  let stats =
    { hs_requested = iterations;
      hs_ran = !ran;
      hs_elapsed_s = Unix.gettimeofday () -. t0;
      hs_deadline_hit = !deadline_hit;
      hs_families =
        List.sort compare
          (Hashtbl.fold (fun k n acc -> (k, n) :: acc) fam_counts []) }
  in
  (List.rev !refuted, stats)

(* ------------------------------------------------------------------ *)
(* QCheck property                                                      *)
(* ------------------------------------------------------------------ *)

let arb_case : (int * int) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (seed, idx) -> Printf.sprintf "fuzz seed=%d idx=%d" seed idx)
    QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))

(** "No plan legality accepts is refuted by translation validation", as a
    qcheck property over generator seeds. *)
let prop_legality_accepted_plans_verify ?(count = 60) () : QCheck.Test.t =
  QCheck.Test.make ~name:"legality-accepted plans verify" ~count arb_case
    (fun (seed, idx) ->
      let c = (generate ~seed (idx + 1)).(idx) in
      match check c.c_program ~vf:c.c_vf ~if_:c.c_if with
      | Tv.Equivalent, _ -> true
      | Tv.Refuted _, _ -> false)
