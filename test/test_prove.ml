(* The prover ({!Verify.Prove}) against the four-input ladder
   ({!Verify.Tv.ladder}): it never proves what the ladder refutes, it
   proves most of what Loopgen's nests and single loops produce, and it
   answers "unknown" for broken transforms. *)

let modules = Test_verify.fuzz_modules

let kernel = "kernel"

let scalar_key (p : Dataset.Program.t) =
  Digest.to_hex (Digest.string p.Dataset.Program.p_source) ^ "|" ^ kernel

let ladder (p : Dataset.Program.t) ~scalar ~key (m : Ir.modul) =
  Verify.Tv.ladder ~key ~scalar ~scalar_key:(scalar_key p) ~kernel m

let proved ~scalar m =
  match Verify.Prove.prove ~scalar ~kernel m with
  | Verify.Prove.Proved -> None
  | Verify.Prove.Unknown_because why -> Some why

let program name src = Dataset.Program.make ~family:"prove" name src

(* does [kernel] of [m] hold a loop inside a loop? *)
let has_nest (m : Ir.modul) =
  match List.find_opt (fun f -> f.Ir.fn_name = kernel) m.Ir.m_funcs with
  | None -> false
  | Some fn ->
      let found = ref false in
      Ir.iter_loops
        (fun l -> Ir.iter_loops (fun _ -> found := true) l.Ir.l_body)
        fn.Ir.fn_body;
      !found

(* ------------------------------------------------------------------ *)
(* Mutants                                                              *)
(* ------------------------------------------------------------------ *)

(* Each operator breaks the transformed module the way a vectorizer
   bug would, or returns [None] where the module has no such spot.  They
   find the transform's shape: setup block, main loop, epilogue block,
   remainder loop (id + 100000). *)

(* rewrite the first setup/main/epilogue/remainder group of [fn] *)
let rewrite_group (fn : Ir.func)
    (f : Ir.node -> Ir.loop -> Ir.node -> Ir.loop -> Ir.node list option) :
    bool =
  let hit = ref false in
  let rec go = function
    | (Ir.Block _ as setup) :: Ir.Loop main :: (Ir.Block _ as epi)
      :: Ir.Loop rem :: rest
      when rem.Ir.l_id = main.Ir.l_id + 100000 && not !hit -> (
        match f setup main epi rem with
        | Some nodes ->
            hit := true;
            nodes @ rest
        | None -> setup :: Ir.Loop main :: epi :: Ir.Loop rem :: go rest)
    | Ir.Loop l :: rest -> Ir.Loop { l with Ir.l_body = go l.Ir.l_body } :: go rest
    | n :: rest -> n :: go rest
    | [] -> []
  in
  fn.Ir.fn_body <- go fn.Ir.fn_body;
  !hit

let mutate (m : Ir.modul) (op : Ir.func -> bool) : Ir.modul option =
  let m = Ir.copy_modul m in
  if List.exists op m.Ir.m_funcs then Some m else None

let map_instrs f nodes =
  List.map (function Ir.Block is -> Ir.Block (f is) | n -> n) nodes

(* the main loop's adjusted bound [b - (K-1)] moved by [d] *)
let main_bound d fn =
  rewrite_group fn (fun setup main epi rem ->
      let bi, bv = main.Ir.l_bound in
      match List.rev bi with
      | Ir.Def (ab, Ir.IBin (Ir.Sub, ty, b, Ir.IConst c)) :: before ->
          let bi =
            List.rev
              (Ir.Def (ab, Ir.IBin (Ir.Sub, ty, b, Ir.IConst (Int64.add c d)))
              :: before)
          in
          Some [ setup; Ir.Loop { main with Ir.l_bound = (bi, bv) }; epi; Ir.Loop rem ]
      | _ -> None)

let remainder_dropped fn =
  rewrite_group fn (fun setup main epi _ -> Some [ setup; Ir.Loop main; epi ])

let remainder_start fn =
  rewrite_group fn (fun setup main epi rem ->
      let r = Ir.fresh_reg fn (Ir.reg_ty fn rem.Ir.l_var) in
      let init =
        ( [ Ir.Def
              ( r,
                Ir.IBin
                  ( Ir.Add, Ir.reg_ty fn rem.Ir.l_var, Ir.Reg rem.Ir.l_var,
                    Ir.IConst 1L ) ) ],
          Ir.Reg r )
      in
      Some [ setup; Ir.Loop main; epi; Ir.Loop { rem with Ir.l_init = init } ])

(* the horizontal combine reads lane 0 instead of reducing the vector:
   one lane left out at VF = 2 *)
let lane_dropped fn =
  rewrite_group fn (fun setup main epi rem ->
      let hit = ref false in
      let epi =
        map_instrs
          (List.map (function
            | Ir.Def (r, Ir.Reduce (_, s, v)) when not !hit ->
                hit := true;
                Ir.Def (r, Ir.Extract (s, v, 0))
            | i -> i))
          [ epi ]
      in
      if !hit then Some ((setup :: Ir.Loop main :: epi) @ [ Ir.Loop rem ]) else None)

(* a float accumulator seeded with 1.0 instead of its identity 0.0 *)
let identity_one fn =
  rewrite_group fn (fun setup main epi rem ->
      let hit = ref false in
      let setup =
        map_instrs
          (List.map (function
            | Ir.Def (r, Ir.Splat (ty, Ir.FConst 0.0)) when not !hit ->
                hit := true;
                Ir.Def (r, Ir.Splat (ty, Ir.FConst 1.0))
            | i -> i))
          [ setup ]
      in
      if !hit then Some (setup @ [ Ir.Loop main; epi; Ir.Loop rem ]) else None)

let in_main f fn =
  rewrite_group fn (fun setup main epi rem ->
      let hit = ref false in
      let body = map_instrs (f hit fn) main.Ir.l_body in
      if !hit then
        Some [ setup; Ir.Loop { main with Ir.l_body = body }; epi; Ir.Loop rem ]
      else None)

(* a strided vector load's stride off by one *)
let stride_off =
  in_main (fun hit _ ->
      List.map (function
        | Ir.Def (r, Ir.Load (ty, m)) when m.Ir.stride <> 1 && not !hit ->
            hit := true;
            Ir.Def (r, Ir.Load (ty, { m with Ir.stride = m.Ir.stride + 1 }))
        | i -> i))

(* a vector store one element further on *)
let store_index_off =
  in_main (fun hit fn ->
      List.concat_map (function
        | Ir.Store (ty, m, v) when not !hit ->
            hit := true;
            let r = Ir.fresh_reg fn (Ir.Scalar Ir.I64) in
            [ Ir.Def (r, Ir.IBin (Ir.Add, Ir.Scalar Ir.I64, m.Ir.index, Ir.IConst 1L));
              Ir.Store (ty, { m with Ir.index = Ir.Reg r }, v) ]
        | i -> [ i ]))

(* a load with a loop-invariant index moved in front of an innermost
   loop that stores to its array *)
let load_hoisted (fn : Ir.func) =
  let hit = ref false in
  let rec go = function
    | Ir.Loop l :: rest when not !hit ->
        let instrs = Ir.all_instrs l.Ir.l_body in
        let defined = Analysis.Scev.defined_regs l.Ir.l_body in
        let stored =
          List.filter_map
            (function Ir.Store (_, m, _) -> Some m.Ir.base | _ -> None)
            instrs
        in
        let movable = function
          | Ir.Def (_, Ir.Load (_, m)) ->
              List.mem m.Ir.base stored
              && (match m.Ir.index with
                 | Ir.Reg r -> not (Analysis.Scev.IntMap.mem r defined)
                 | _ -> true)
          | _ -> false
        in
        if List.exists (fun n -> match n with Ir.Loop _ -> true | _ -> false) l.Ir.l_body
        then Ir.Loop { l with Ir.l_body = go l.Ir.l_body } :: go rest
        else (
          match List.find_opt movable instrs with
          | Some ld ->
              hit := true;
              let body =
                map_instrs (List.filter (fun i -> i != ld)) l.Ir.l_body
              in
              Ir.Block [ ld ] :: Ir.Loop { l with Ir.l_body = body } :: rest
          | None -> Ir.Loop l :: go rest)
    | n :: rest -> n :: go rest
    | [] -> []
  in
  fn.Ir.fn_body <- go fn.Ir.fn_body;
  !hit

let operators =
  [ ("main-loop bound +1", main_bound (-1L));
    ("main-loop bound -1", main_bound 1L);
    ("remainder dropped", remainder_dropped);
    ("remainder start +1", remainder_start);
    ("lane left out of the combine", lane_dropped);
    ("reduction identity 1.0", identity_one);
    ("load stride +1", stride_off);
    ("store index +1", store_index_off);
    ("load hoisted out of its writer", load_hoisted) ]

(* a main loop stopped one vector iteration early leaves the rest to the
   remainder: an equivalent mutant at every trip count *)
let equivalent_operators = [ "main-loop bound -1" ]

(* nests whose inner trip count [m] the test sweeps *)
let templates =
  [ ( "dot nest",
      fun m ->
        Printf.sprintf
          "float a[3][32];\nfloat b[32][3];\nfloat c[3][3];\n\nint kernel() {\n\
          \  int i;\n  int j;\n  int k;\n  for (i = 0; i < 3; i++) {\n\
          \    for (j = 0; j < 3; j++) {\n      float s = 0;\n\
          \      for (k = 0; k < %d; k++) {\n        s += a[i][k] * b[k][j];\n\
          \      }\n      c[i][j] = s;\n    }\n  }\n  return (int) c[1][1];\n}\n"
          m );
    ( "strided fill",
      fun m ->
        Printf.sprintf
          "int d[3][32];\nint s[3][72];\n\nint kernel() {\n  int i;\n  int j;\n\
          \  for (i = 0; i < 3; i++) {\n    for (j = 0; j < %d; j++) {\n\
          \      d[i][j] = s[i][2 * j + 1] + i - j;\n    }\n  }\n\
          \  return d[1][2];\n}\n"
          m );
    ( "self-feeding row",
      fun m ->
        Printf.sprintf
          "int a[3][32];\n\nint kernel() {\n  int i;\n  int j;\n\
          \  for (i = 0; i < 3; i++) {\n    for (j = 0; j < %d; j++) {\n\
          \      a[i][j] = a[i][0] + 1;\n    }\n  }\n  return a[1][3];\n}\n"
          m ) ]

(* the nest templates' rows as flat loops, and a flat float sum *)
let flat_templates =
  [ ( "dot row",
      fun m ->
        Printf.sprintf
          "float a[32];\nfloat b[96];\nfloat c[1];\n\nint kernel() {\n  int k;\n\
          \  float s = 0;\n  for (k = 0; k < %d; k++) {\n\
          \    s += a[k] * b[3 * k + 1];\n  }\n  c[0] = s;\n  return (int) c[0];\n}\n"
          m );
    ( "strided fill row",
      fun m ->
        Printf.sprintf
          "int d[32];\nint s[72];\n\nint kernel() {\n  int j;\n\
          \  for (j = 0; j < %d; j++) {\n      d[j] = s[2 * j + 1] + 1 - j;\n  }\n\
          \  return d[2];\n}\n"
          m );
    ( "self-feeding row",
      fun m ->
        Printf.sprintf
          "int a[32];\n\nint kernel() {\n  int j;\n\
          \  for (j = 0; j < %d; j++) {\n    a[j] = a[0] + 1;\n  }\n  return a[3];\n}\n"
          m );
    ( "float sum",
      fun m ->
        Printf.sprintf
          "float x[32];\nfloat y[1];\n\nint kernel() {\n  int i;\n  float s = 0;\n\
          \  for (i = 0; i < %d; i++) {\n    s += x[i];\n  }\n  y[0] = s;\n\
          \  return (int) y[0];\n}\n"
          m ) ]

let mutant_plans = [ (2, 1); (2, 2); (4, 1); (4, 2) ]

(* Every operator over [templates] at their plans and every trip count
   from 0 to 3 VF IF.  [unmutated] says why an unmutated module may go
   unproved ([None]: it may not). *)
let check_mutants templates ~(unmutated : string -> string option) =
  (* operator -> (instances, ladder refutations, equivalent, proved) *)
  let tally = Hashtbl.create 16 in
  let bump op f =
    let a, b, c, d =
      Option.value (Hashtbl.find_opt tally op) ~default:(0, 0, 0, 0)
    in
    Hashtbl.replace tally op (f (a, b, c, d))
  in
  let unmutated_unproved = ref [] in
  List.iter
    (fun (tname, src) ->
      List.iter
        (fun (vf, if_) ->
          let ms = List.init ((3 * vf * if_) + 1) Fun.id in
          let cases =
            List.map
              (fun m ->
                let p = program (Printf.sprintf "%s m=%d" tname m) (src m) in
                let scalar, t = modules p ~vf ~if_ in
                (match proved ~scalar t with
                | None -> ()
                | Some why when unmutated why = None ->
                    unmutated_unproved :=
                      Printf.sprintf "%s %d,%d m=%d: %s" tname vf if_ m why
                      :: !unmutated_unproved
                | Some _ -> ());
                (p, scalar, t))
              ms
          in
          List.iter
            (fun (op, f) ->
              (* one mutant: the operator at this plan, over every trip
                 count *)
              let refuted = ref false and applied = ref false in
              List.iter
                (fun (p, scalar, t) ->
                  match mutate t f with
                  | None -> ()
                  | Some bad -> (
                      applied := true;
                      let key =
                        Printf.sprintf "%s|mutant %s %d,%d" (scalar_key p) op vf if_
                      in
                      let verdict = ladder p ~scalar ~key bad in
                      let proof = proved ~scalar bad in
                      (match verdict with
                      | Verify.Tv.Refuted _ -> refuted := true
                      | Verify.Tv.Equivalent -> ());
                      match (proof, verdict) with
                      | None, Verify.Tv.Refuted cx ->
                          Alcotest.failf "%s: mutant %S proved, ladder refutes: %s"
                            p.Dataset.Program.p_name op (Verify.Tv.render cx)
                      | None, Verify.Tv.Equivalent -> bump op (fun (a, b, c, d) -> (a, b, c, d + 1))
                      | Some _, _ -> ()))
                cases;
              if !applied then
                bump op (fun (a, b, c, d) ->
                    if !refuted then (a + 1, b + 1, c, d) else (a + 1, b, c + 1, d)))
            operators)
        (if tname = "self-feeding row" then [ (1, 1); (2, 2) ] else mutant_plans))
    templates;
  Alcotest.(check (list string)) "every unmutated module proved" []
    (List.rev !unmutated_unproved);
  List.iter
    (fun (op, _) ->
      let n, refuted, equivalent, proved =
        Option.value (Hashtbl.find_opt tally op) ~default:(0, 0, 0, 0)
      in
      Printf.printf
        "mutant %-32s %2d instances: %2d refuted by the ladder, %2d agree \
         with S at every trip count; %d mutated modules proved (all \
         ladder-equivalent)\n"
        op n refuted equivalent proved;
      Alcotest.(check bool) (op ^ ": applied somewhere") true (n > 0);
      if List.mem op equivalent_operators then
        (* the remainder resumes wherever the main loop stopped *)
        Alcotest.(check int) (op ^ ": equivalent at every trip count") n equivalent
      else Alcotest.(check bool) (op ^ ": the ladder refutes it") true (refuted > 0))
    operators

let test_mutants () = check_mutants templates ~unmutated:(fun _ -> None)

(* a single loop too short for a block to pay is left to the ladder *)
let test_flat_mutants () =
  check_mutants flat_templates ~unmutated:(fun why ->
      if String.starts_with ~prefix:"declined: a block costs the loop" why then Some why
      else None)

(* ------------------------------------------------------------------ *)
(* Agreement and coverage                                               *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable verdicts : int;
  mutable proofs : int;
  reasons : (string, int) Hashtbl.t;
}

let tallies : (string, tally) Hashtbl.t = Hashtbl.create 8

let record family why =
  let t =
    match Hashtbl.find_opt tallies family with
    | Some t -> t
    | None ->
        let t = { verdicts = 0; proofs = 0; reasons = Hashtbl.create 4 } in
        Hashtbl.replace tallies family t;
        t
  in
  t.verdicts <- t.verdicts + 1;
  match why with
  | None -> t.proofs <- t.proofs + 1
  | Some w ->
      Hashtbl.replace t.reasons w
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.reasons w))

(* wherever the prover proves, the ladder says Equivalent *)
let agree ~family (p : Dataset.Program.t) ~vf ~if_ =
  let scalar, t = modules p ~vf ~if_ in
  let why = proved ~scalar t in
  record family why;
  if why = None then
    match
      ladder p ~scalar ~key:(Printf.sprintf "%s|%d,%d" (scalar_key p) vf if_) t
    with
    | Verify.Tv.Equivalent -> ()
    | Verify.Tv.Refuted cx ->
        Alcotest.failf "%s at %d,%d proved, ladder refutes: %s"
          p.Dataset.Program.p_name vf if_ (Verify.Tv.render cx)

let all_plans =
  List.concat_map
    (fun vf -> List.map (fun if_ -> (vf, if_)) (Array.to_list Rl.Spaces.if_values))
    (Array.to_list Rl.Spaces.vf_values)

let nest_families = [ "gemm"; "nested_fill" ]

(* the first 40 of Loopgen seed 29's programs [which] accepts *)
let loopgen which =
  Dataset.Loopgen.generate ~seed:29 400
  |> Array.to_list
  |> List.filter (fun p -> which p.Dataset.Program.p_family)
  |> List.filteri (fun i _ -> i < 40)

let share f =
  match Hashtbl.find_opt tallies f with
  | Some t -> (t.proofs, t.verdicts)
  | None -> (0, 0)

let report families =
  List.iter
    (fun f ->
      let p, n = share f in
      Printf.printf "%-26s %4d / %4d verdicts proved (%.1f%%)\n" f p n
        (if n = 0 then 0.0 else 100.0 *. float_of_int p /. float_of_int n);
      match Hashtbl.find_opt tallies f with
      | Some t ->
          Hashtbl.iter (fun w k -> Printf.printf "  unknown (%d): %s\n" k w) t.reasons
      | None -> ())
    families

let test_agreement_and_coverage () =
  Hashtbl.reset tallies;
  let nests = loopgen (fun f -> List.mem f nest_families)
  and flat = loopgen (fun f -> not (List.mem f nest_families)) in
  Alcotest.(check int) "40 Loopgen nests" 40 (List.length nests);
  Alcotest.(check int) "40 Loopgen single loops" 40 (List.length flat);
  List.iter
    (fun p ->
      List.iter
        (fun (vf, if_) -> agree ~family:p.Dataset.Program.p_family p ~vf ~if_)
        all_plans)
    (nests @ flat);
  let suites =
    Array.concat
      [ Dataset.Polybench.programs; Dataset.Mibench.programs;
        Dataset.Llvm_suite.programs ]
  in
  Array.iter
    (fun p ->
      let family =
        if has_nest (fst (modules p ~vf:1 ~if_:1)) then "suites" else "suites flat"
      in
      List.iter (fun (vf, if_) -> agree ~family p ~vf ~if_) [ (1, 1); (4, 2); (8, 1) ])
    suites;
  Array.iter
    (fun c ->
      let p = c.Verify.Loopfuzz.c_program in
      agree ~family:("loopfuzz " ^ p.Dataset.Program.p_family) p
        ~vf:c.Verify.Loopfuzz.c_vf ~if_:c.Verify.Loopfuzz.c_if)
    (Verify.Loopfuzz.generate ~seed:31 240);
  let flat_families =
    List.sort_uniq compare (List.map (fun p -> p.Dataset.Program.p_family) flat)
  in
  let fuzz_families =
    List.map (fun (f, _) -> "loopfuzz " ^ f) (Array.to_list Verify.Loopfuzz.families)
  in
  report (nest_families @ [ "suites"; "loopfuzz nest" ]);
  report (flat_families @ [ "suites flat" ]
          @ List.filter (fun f -> f <> "loopfuzz nest") fuzz_families);
  (* the exact counts, so a change to the induction or block step that
     loses proofs shows here *)
  List.iter
    (fun (f, expect) ->
      Alcotest.(check (pair int int)) (f ^ ": proved / verdicts") expect (share f))
    [ ("gemm", (453, 455)); ("nested_fill", (945, 945)); ("suites", (9, 33));
      ("loopfuzz nest", (25, 27)) ];
  List.iter
    (fun (f, expect) ->
      Alcotest.(check (pair int int)) (f ^ ": proved / verdicts") expect (share f))
    [ ("bitwise", (63, 70));
      ("elementwise", (32, 35));
      ("gather", (35, 35));
      ("multi_stmt", (65, 70));
      ("offset", (97, 105));
      ("predicate", (30, 105));
      ("recurrence", (105, 105));
      ("reduction", (130, 140));
      ("reversed", (207, 210));
      ("saxpy", (63, 70));
      ("strided", (175, 175));
      ("unknown_bound", (199, 210));
      ("widening", (66, 70));
      ("suites flat", (48, 54));
      ("loopfuzz recurrence", (36, 36));
      ("loopfuzz store_load_ahead", (47, 47));
      ("loopfuzz load_store_behind", (26, 26));
      ("loopfuzz float_reduction", (44, 44));
      ("loopfuzz aliasing_stores", (32, 32));
      ("loopfuzz mixed_stride", (27, 28)) ];
  let sum fs =
    List.fold_left (fun (p, n) f -> let p', n' = share f in (p + p', n + n')) (0, 0) fs
  in
  let pn, nn = sum nest_families and pf, nf = sum flat_families in
  Alcotest.(check bool) "loopfuzz nests were checked" true (snd (share "loopfuzz nest") > 0);
  Alcotest.(check bool)
    (Printf.sprintf "Loopgen nests proved: %d / %d >= 90%%" pn nn)
    true
    (10 * pn >= 9 * nn);
  Alcotest.(check bool)
    (Printf.sprintf "Loopgen single loops proved: %d / %d >= 85%%" pf nf)
    true
    (20 * pf >= 17 * nf)

(* ------------------------------------------------------------------ *)
(* The entry point                                                      *)
(* ------------------------------------------------------------------ *)

let gemm_src =
  "double a[24][24];\ndouble b[24][24];\ndouble c[24][24];\n\n\
   int kernel() {\n  int i;\n  int j;\n  int k;\n\
  \  for (i = 0; i < 24; i++) {\n    for (j = 0; j < 24; j++) {\n\
  \      double sum = 0;\n      for (k = 0; k < 24; k++) {\n\
  \        sum += a[i][k] * b[k][j];\n      }\n      c[i][j] = sum;\n\
  \    }\n  }\n  return (int) c[12][8];\n}\n"

let test_verify_entry () =
  (* a proved nest verdict builds no image and counts a proof; a
     sabotaged one still takes the ladder and is refuted *)
  let p = program "gemm entry" gemm_src in
  let scalar, t = modules p ~vf:2 ~if_:16 in
  let images = Counter.get Verify.Tv.images
  and proofs = Counter.get Verify.Tv.proved in
  let verdict =
    Verify.Tv.verify ~key:"prove-entry" ~scalar ~scalar_key:(scalar_key p)
      ~kernel t
  in
  Alcotest.(check bool) "equivalent" true (verdict = Verify.Tv.Equivalent);
  Alcotest.(check int) "one proof" (proofs + 1) (Counter.get Verify.Tv.proved);
  Alcotest.(check int) "no image built" images (Counter.get Verify.Tv.images);
  match
    Verify.Tv.verify ~sabotage:true ~key:"prove-entry" ~scalar
      ~scalar_key:(scalar_key p) ~kernel t
  with
  | Verify.Tv.Refuted _ -> ()
  | Verify.Tv.Equivalent -> Alcotest.fail "sabotage not refuted"

(* A single-loop fill over a million cells: proved at (1,1) and (8,2)
   without building an input or running the reference; sabotaged, it
   takes the ladder and is refuted with the ladder's counterexample. *)
let fill_src =
  "int a[1000000];\n\nint kernel() {\n  int i;\n\
  \  for (i = 0; i < 1000000; i++) a[i] = i + 3;\n  return a[5];\n}\n"

let test_single_loop_entry () =
  let p = program "1M fill" fill_src in
  let verify ?sabotage (scalar, t) =
    Verify.Tv.verify ?sabotage ~key:"prove-fill" ~scalar ~scalar_key:(scalar_key p)
      ~kernel t
  in
  let plans = List.map (fun (vf, if_) -> modules p ~vf ~if_) [ (1, 1); (8, 2) ] in
  let entries () = (Memo.stats Verify.Tv.scalar_runs).Memo.misses in
  let images = Counter.get Verify.Tv.images
  and proofs = Counter.get Verify.Tv.proved
  and scalar_entries = entries () in
  List.iter
    (fun m -> Alcotest.(check bool) "equivalent" true (verify m = Verify.Tv.Equivalent))
    plans;
  Alcotest.(check int) "two proofs" (proofs + 2) (Counter.get Verify.Tv.proved);
  Alcotest.(check int) "no image built" images (Counter.get Verify.Tv.images);
  Alcotest.(check int) "no scalar run cached" scalar_entries (entries ());
  match verify ~sabotage:true (List.nth plans 1) with
  | Verify.Tv.Refuted cx ->
      Alcotest.(check string) "the ladder's counterexample"
        "input=zeros cell=a[227845] scalar=227848 vector=227849" (Verify.Tv.render cx)
  | Verify.Tv.Equivalent -> Alcotest.fail "sabotage not refuted"

(* Two hand-written kernels per case: a reference and a "transformed"
   one that differs from it only in the first outer iteration (through a
   register read before its definition, or a cell an earlier iteration
   wrote), or in one inner trip count; or, between two single loops, in
   an update that run twice would give the reference's value.  None may
   be proved, and the ladder refutes each. *)
let diverging_pairs =
  let nest body =
    Printf.sprintf
      "int a[4][5];\nfloat b[4];\nint c[5];\n\nint kernel() {\n  int i;\n  int j;\n\
      \  float r;\n  for (i = 0; i < 4; i++) {\n%s\n  }\n  return a[1][1];\n}\n"
      body
  in
  let two_loops update =
    Printf.sprintf
      "int a[100];\nint b[100];\n\nint kernel() {\n  int i;\n  int j;\n  int x;\n\
      \  for (j = 0; j < 100; j++) b[j] = j;\n  x = x + %d;\n\
      \  for (i = 0; i < 100; i++) a[i] = x;\n  return a[3];\n}\n"
      update
  in
  [ ( "register read before its definition", true,
      nest "    for (j = 0; j < 4; j++) a[i][j] = 1;\n    b[i] = r;\n    r = 2.5;",
      nest "    for (j = 0; j < 4; j++) a[i][j] = 1;\n    b[i] = 2.5;\n    r = 2.5;" );
    ( "cell an earlier iteration wrote", true,
      nest "    for (j = 0; j < 4; j++) a[i][j] = c[4] + j;\n    c[4] = 7;",
      nest "    for (j = 0; j < 4; j++) a[i][j] = 7 + j;\n    c[4] = 7;" );
    ( "one more inner iteration", true,
      nest "    for (j = 0; j < 4; j++) a[i][j] = i + j;",
      nest "    for (j = 0; j < 5; j++) a[i][j] = i + j;" );
    ("half the update between two loops", false, two_loops 10, two_loops 5) ]

let test_diverging_pairs () =
  List.iter
    (fun (what, nested, s_src, t_src) ->
      let lower src =
        Ir_lower.lower_program (Minic.Parser.parse_string src)
      in
      let scalar = lower s_src and t = lower t_src in
      let p = program what s_src in
      Alcotest.(check bool) (what ^ ": a nest") nested (has_nest scalar);
      Alcotest.(check (option string)) (what ^ ": the reference proves against itself")
        None (proved ~scalar (lower s_src));
      Alcotest.(check bool) (what ^ ": not proved") true
        (proved ~scalar t <> None);
      match ladder p ~scalar ~key:("diverging " ^ what) t with
      | Verify.Tv.Refuted _ -> ()
      | Verify.Tv.Equivalent -> Alcotest.failf "%s: the ladder accepts it" what)
    diverging_pairs

(* [x = u] passes u's value on unchanged, so the induction step must not
   let u change shape: u is never initialized, so it enters as the tree
   walker's integer 0, and it leaves every iteration a float, so after
   the nest x holds a float.  The "transformed" kernel adds an integer
   vector add of x after the nest, which traps on that float: it must not
   be proved, and the ladder refutes it.  (A step that did not count the
   value x still holds as a use of u's shape would model x as an integer
   after the nest and prove it.) *)
let forwarded_src =
  "int a[4][5];\n\nint kernel() {\n  int i;\n  int j;\n  float u;\n\
  \  float x;\n  for (i = 0; i < 4; i++) {\n    x = u;\n\
  \    for (j = 0; j < 4; j++) a[i][j] = 1;\n    u = 2.5;\n  }\n\
  \  return a[1][1];\n}\n"

let test_forwarded_shape () =
  (* the kernel with u's declaration-time initialization dropped; u and
     x are the source and target of the loop's only register move *)
  let lower () =
    let m = Ir_lower.lower_program (Minic.Parser.parse_string forwarded_src) in
    let fn = List.find (fun f -> f.Ir.fn_name = kernel) m.Ir.m_funcs in
    let x, u =
      List.find_map
        (function
          | Ir.Loop l ->
              List.find_map
                (function Ir.Def (x, Ir.Mov (_, Ir.Reg u)) -> Some (x, u) | _ -> None)
                (Ir.all_instrs l.Ir.l_body)
          | _ -> None)
        fn.Ir.fn_body
      |> Option.get
    in
    fn.Ir.fn_body <-
      map_instrs (List.filter (function Ir.Def (r, _) -> r <> u | _ -> true)) fn.Ir.fn_body;
    (m, fn, x)
  in
  let scalar, _, _ = lower () and t, fn, x = lower () in
  let ty = Ir.Vec (2, Ir.I64) in
  let y = Ir.fresh_reg fn ty in
  let add = Ir.Block [ Ir.Def (y, Ir.IBin (Ir.Add, ty, Ir.Reg x, Ir.Reg x)) ] in
  fn.Ir.fn_body <-
    List.concat_map (function Ir.Return _ as r -> [ add; r ] | n -> [ n ]) fn.Ir.fn_body;
  let p = program "forwarded shape" forwarded_src in
  Alcotest.(check bool) "not proved" true (proved ~scalar t <> None);
  match ladder p ~scalar ~key:"forwarded shape" t with
  | Verify.Tv.Refuted _ -> ()
  | Verify.Tv.Equivalent -> Alcotest.fail "the ladder accepts it"

(* A nest whose inner loop is a long float reduction: each update of S's
   left fold copies the operands of the sum so far, so an attempt costs
   the square of the row length.  The work bound counts those copies, so
   the prover gives up after a bounded amount of work and memory. *)
let long_row_src n =
  Printf.sprintf
    "float a[4][%d];\nfloat x[%d];\nfloat y[4];\n\nint kernel() {\n\
    \  int i;\n  int k;\n  for (i = 0; i < 4; i++) {\n    float s = 0;\n\
    \    for (k = 0; k < %d; k++) {\n      s += a[i][k] * x[k];\n    }\n\
    \    y[i] = s;\n  }\n  return (int) y[1];\n}\n"
    n n n

let test_long_reduction () =
  (* long enough that a quadratic attempt allocates about 240 MB, short
     enough that one cannot exhaust memory *)
  let n = 4000 in
  let p = program "long row" (long_row_src n) in
  let scalar, t = modules p ~vf:4 ~if_:2 in
  let before = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
  let outcome = Verify.Prove.prove ~scalar ~kernel t in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Printf.printf "4 x %d row: %s after %.1f MB allocated in %.0f ms\n" n
    (match outcome with
    | Verify.Prove.Proved -> "proved"
    | Verify.Prove.Unknown_because why -> why)
    mb
    (1000. *. (Unix.gettimeofday () -. t0));
  Alcotest.(check bool) "unknown" true (outcome <> Verify.Prove.Proved);
  Alcotest.(check bool) (Printf.sprintf "%.1f MB allocated, under 64 MB" mb) true
    (mb < 64.)

(* A proof costs what it executes, not what the transformed loop body
   holds: at n = 12 the main loop of the (2,16) plan, a 16-way
   interleaved body, never runs, so its proof allocates about what the
   (2,2) proof of the same nest does. *)
let float_gemm_src n =
  Printf.sprintf
    "float a[%d][%d];\nfloat b[%d][%d];\nfloat c[%d][%d];\n\nint kernel() {\n\
    \  int i;\n  int j;\n  int k;\n  for (i = 0; i < %d; i++) {\n\
    \    for (j = 0; j < %d; j++) {\n      float sum = 0;\n\
    \      for (k = 0; k < %d; k++) {\n        sum += a[i][k] * b[k][j];\n\
    \      }\n      c[i][j] = sum;\n    }\n  }\n  return (int) c[%d][%d];\n}\n"
    n n n n n n n n n (n / 2) (n / 3)

let test_proof_cost () =
  let p = program "float gemm 12" (float_gemm_src 12) in
  let words (vf, if_) =
    let scalar, t = modules p ~vf ~if_ in
    Alcotest.(check (option string)) (Printf.sprintf "(%d,%d) proved" vf if_) None
      (proved ~scalar t);
    let w0 = Gc.minor_words () in
    ignore (proved ~scalar t);
    Gc.minor_words () -. w0
  in
  let wide = words (2, 16) and narrow = words (2, 2) in
  let ratio = wide /. narrow in
  Printf.printf "n = 12: (2,16) %.0f minor words, (2,2) %.0f, %.2fx\n" wide narrow ratio;
  Alcotest.(check bool) (Printf.sprintf "%.2fx, at most 1.5x" ratio) true (ratio <= 1.5)

(* Every iteration spends a step on both engines, so it counts towards
   the fuel check even when the body is empty: a 20,000 x 10,000 empty
   nest spends 2 x 10^8 steps, past the prover's half of the budget; a
   200 x 100 one is proved. *)
let empty_nest_src outer inner =
  Printf.sprintf
    "int a[4];\n\nint kernel() {\n  int i;\n  int j;\n\
    \  for (i = 0; i < %d; i++) {\n    for (j = 0; j < %d; j++) {\n    }\n  }\n\
    \  return a[0];\n}\n"
    outer inner

let test_empty_nest_fuel () =
  let lower src = Ir_lower.lower_program (Minic.Parser.parse_string src) in
  let check outer inner expect =
    let src = empty_nest_src outer inner in
    let scalar = lower src in
    Alcotest.(check bool) "a nest" true (has_nest scalar);
    Alcotest.(check (option string))
      (Printf.sprintf "%d x %d empty nest" outer inner)
      expect (proved ~scalar (lower src))
  in
  check 200 100 None;
  check 20000 10000 (Some "instruction count near the fuel budget")

let suite =
  [ ( "prove",
      [ Alcotest.test_case "verify proves a nest, sabotage takes the ladder"
          `Quick test_verify_entry;
        Alcotest.test_case "first-iteration and trip-count divergence" `Quick
          test_diverging_pairs;
        Alcotest.test_case "a value passed on unchanged keeps its shape" `Quick
          test_forwarded_shape;
        Alcotest.test_case "a long float reduction stops at the work bound"
          `Quick test_long_reduction;
        Alcotest.test_case "verify proves a single loop, builds nothing"
          `Quick test_single_loop_entry;
        Alcotest.test_case "mutants: never proved where the ladder refutes"
          `Slow test_mutants;
        Alcotest.test_case "single-loop mutants: never proved where refuted"
          `Slow test_flat_mutants;
        Alcotest.test_case "agreement with the ladder, coverage" `Slow
          test_agreement_and_coverage;
        Alcotest.test_case "empty iterations count against the fuel budget"
          `Quick test_empty_nest_fuel;
        Alcotest.test_case "a proof costs what it executes" `Quick test_proof_cost ] ) ]
