(* The parallel evaluation engine and its determinism contract.

   Four layers:
   - Parpool itself: ordering, exception choice, nesting, jobs=1 serial
     path, with_jobs restoration.
   - Equivalence: a --jobs 4 run must be bit-identical to --jobs 1 —
     reward tables, quarantine reports, probe results, and the bytes of a
     checkpoint written after training — including under an active fault
     spec (compile failures, traps, fuel, timeout spikes, timing noise).
   - Engines: the planned shared-artifact path every entry point
     measures through (lower once, vectorize per plan, memoized timing)
     must report and measure every point bit-identically to injecting
     the plan's pragmas and re-lowering, with and without faults, with
     and without Polly; and a source's own pragmas, run as a plan, must
     measure what re-lowering the source as written measures.
   - Stress: four domains hammering one oracle's caches keep the merged
     statistics coherent and the cached values equal to a serial rerun. *)

let fault_options = Train_pins.fault_options

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Parpool                                                              *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let xs = Array.init 100 Fun.id in
  let squares = Neurovec.Parpool.map ~jobs:4 (fun i -> i * i) xs in
  Alcotest.(check (array int))
    "input order" (Array.map (fun i -> i * i) xs) squares

let test_map_serial_path () =
  let xs = Array.init 10 Fun.id in
  Alcotest.(check (array int))
    "jobs=1 = Array.map"
    (Array.map succ xs)
    (Neurovec.Parpool.map ~jobs:1 succ xs)

let test_map_lowest_exception () =
  (* indices 10 and 30 raise; a serial left-to-right run surfaces 10 *)
  match
    Neurovec.Parpool.map ~jobs:4
      (fun i -> if i = 10 || i = 30 then failwith (string_of_int i) else i)
      (Array.init 50 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "lowest index" "10" msg

let test_map_nested_runs_serial () =
  (* nested maps must degrade to the serial path inside workers (and still
     compute the right thing) *)
  let outer =
    Neurovec.Parpool.map ~jobs:4
      (fun i ->
        Array.fold_left ( + ) 0
          (Neurovec.Parpool.map ~jobs:4 (fun j -> (i * 100) + j)
             (Array.init 10 Fun.id)))
      (Array.init 4 Fun.id)
  in
  Alcotest.(check (array int))
    "nested results"
    (Array.init 4 (fun i -> (i * 1000) + 45))
    outer

let test_with_jobs_restores () =
  let before = Neurovec.Parpool.jobs () in
  Neurovec.Parpool.with_jobs 3 (fun () ->
      Alcotest.(check int) "inside" 3 (Neurovec.Parpool.jobs ()));
  Alcotest.(check int) "restored" before (Neurovec.Parpool.jobs ());
  (match
     Neurovec.Parpool.with_jobs 5 (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "restored after raise" before (Neurovec.Parpool.jobs ())

let test_default_one_domain_per_core () =
  (* the pool size counts the calling domain, so the default is the core
     count itself: on a 2-core host a run without --jobs uses both *)
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "one domain per core" (max 1 cores)
    Neurovec.Parpool.default_jobs;
  if Neurovec.Parpool.env_jobs = None && !Neurovec.Parpool.override = None
  then
    Alcotest.(check int) "no --jobs, no NEUROVEC_JOBS: the default"
      Neurovec.Parpool.default_jobs (Neurovec.Parpool.jobs ());
  Neurovec.Parpool.with_jobs (cores + 3) (fun () ->
      Alcotest.(check int) "an explicit size is not clamped" (cores + 3)
        (Neurovec.Parpool.jobs ()))

let test_oversubscription_note () =
  let note = Neurovec.Parpool.oversubscription_note in
  Alcotest.(check (option string)) "more domains than cores"
    (Some "4 pool domains on 2 cores: the pool's domains will share cores")
    (note ~jobs:4 ~cores:2);
  Alcotest.(check (option string)) "one domain per core" None
    (note ~jobs:2 ~cores:2);
  Alcotest.(check (option string)) "fewer domains than cores" None
    (note ~jobs:1 ~cores:8)

(* ------------------------------------------------------------------ *)
(* Serial vs parallel equivalence                                       *)
(* ------------------------------------------------------------------ *)

(* a fresh sweep of the same corpus at a given pool size; fresh caches
   so the second run cannot coast on the first run's memoization *)
let sweep ?(options = fault_options) ~jobs
    (programs : Dataset.Program.t array) =
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options programs in
  let results =
    Neurovec.Parpool.with_jobs jobs (fun () ->
        Neurovec.Reward.sweep_all oracle)
  in
  (results, Neurovec.Reward.quarantine_report oracle)

let check_sweeps_equal (a_results, a_quar) (b_results, b_quar) =
  Alcotest.(check int) "lengths" (Array.length a_results)
    (Array.length b_results);
  Array.iteri
    (fun i s ->
      match (s, b_results.(i)) with
      | None, None -> ()
      | Some (sa, sr), Some (pa, pr) ->
          Alcotest.(check bool)
            (Printf.sprintf "program %d best action" i)
            true (sa = pa);
          Alcotest.(check int64)
            (Printf.sprintf "program %d reward bits" i)
            (bits sr) (bits pr)
      | _ -> Alcotest.failf "program %d: quarantine state diverged" i)
    a_results;
  Alcotest.(check (list (pair string string))) "quarantine report" a_quar
    b_quar

let test_sweep_bit_identical () =
  let programs = Dataset.Loopgen.generate ~seed:33 10 in
  check_sweeps_equal (sweep ~jobs:1 programs) (sweep ~jobs:4 programs)

let test_probe_samples_identical () =
  let programs = Dataset.Loopgen.generate ~seed:44 12 in
  let probe ~jobs =
    Neurovec.Frontend.clear ();
    let agent =
      Rl.Agent.create ~hidden:[ 8 ] ~space:Rl.Spaces.Discrete
        (Nn.Rng.create 5)
    in
    let oracle = Neurovec.Reward.create ~options:fault_options programs in
    Neurovec.Parpool.with_jobs jobs (fun () ->
        Neurovec.Framework.probe_samples agent oracle programs)
  in
  let s_samples, s_skipped = probe ~jobs:1 in
  let p_samples, p_skipped = probe ~jobs:4 in
  Alcotest.(check (list (pair string string))) "skipped" s_skipped p_skipped;
  Alcotest.(check int) "sample count" (Array.length s_samples)
    (Array.length p_samples);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "s_id" s.Rl.Ppo.s_id p_samples.(i).Rl.Ppo.s_id;
      Alcotest.(check bool)
        "embedding ids" true
        (s.Rl.Ppo.s_ids = p_samples.(i).Rl.Ppo.s_ids))
    s_samples

(* training end to end: same corpus, same seed, same faults -> the bytes
   of the saved checkpoint must not depend on the pool size *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* {!Train_pins.framework_run} under the test fault spec at [jobs],
   saved to [path] *)
let train_checkpoint ~jobs path =
  Neurovec.Parpool.with_jobs jobs (fun () ->
      let agent, _ = Train_pins.framework_run ~options:fault_options in
      Rl.Checkpoint.save agent path)

let with_two_checkpoints f =
  let p1 = Filename.temp_file "neurovec_ckpt_a" ".agent" in
  let p2 = Filename.temp_file "neurovec_ckpt_b" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove p1; Sys.remove p2)
    (fun () -> f p1 p2)

let test_training_checkpoint_bytes_identical () =
  with_two_checkpoints (fun p1 p4 ->
      train_checkpoint ~jobs:1 p1;
      train_checkpoint ~jobs:4 p4;
      Alcotest.(check bool)
        "checkpoint bytes identical" true
        (read_file p1 = read_file p4))

(* ------------------------------------------------------------------ *)
(* Injected pragmas re-lowered vs the planned path, point by point      *)
(* ------------------------------------------------------------------ *)

(* Every entry point measures through [eval_planned]: the program
   lowered and scalar-optimized once, a copy vectorized per plan, point
   and per-loop timing memos on top.  The reference is the paper's
   mechanism: the plan's pragmas injected into the source text
   ([Injector.inject_source]), re-parsed and run through the re-lowering
   path [Relower.run_ast] under the plan's fault key, sample and attempt.
   Both must give the same planner report and the same (exec, compile)
   bits on every (program, plan, sample, attempt) — or raise the same
   exception.

   Order matters.  The reference table is computed first, with every
   Memo table at capacity 0, so every value in it is computed, none
   recalled.  Then the same points run through [eval_planned] on memos
   that warm as they go, so a memo key missing a cost-relevant field
   hands one point another point's value.  A reference on live memos
   would recall the same wrong value and agree. *)

let engine_corpus () =
  Array.append
    (Array.sub Dataset.Llvm_suite.programs 0 4)
    (Dataset.Loopgen.generate ~seed:77 8)

let sites_of (p : Dataset.Program.t) : int =
  List.length (Neurovec.Extractor.extract_source p.Dataset.Program.p_source)

(* the [j]th of 35 per-site decision lists over [n] loop sites, mixing
   actions, unlisted sites (the cost model), lone widths and counts, and
   [vectorize(disable)] *)
let site_decisions (n : int) (j : int) : (int * Minic.Ast.loop_pragma) list =
  let actions = Array.of_list Rl.Spaces.all_actions in
  List.filter_map
    (fun k ->
      let a = actions.(((j * 7) + (k * 11)) mod 35) in
      let vf = Rl.Spaces.vf_of a and if_ = Rl.Spaces.if_of a in
      let pragma = Neurovec.Injector.pragma_of ~vf ~if_ in
      match (j + (2 * k)) mod 6 with
      | 0 -> None
      | 1 -> Some (k, { pragma with Minic.Ast.vectorize_enable = Some false })
      | 2 -> Some (k, { pragma with Minic.Ast.interleave_count = None })
      | 3 -> Some (k, { pragma with Minic.Ast.vectorize_width = None })
      | _ -> Some (k, pragma))
    (List.init n Fun.id)

(* (plan, sample, attempt) of every point of a program with [n] sites *)
let engine_points (n : int) : (Neurovec.Pipeline.plan * int * int) array =
  let plans =
    (Neurovec.Pipeline.Baseline
    :: List.map
         (fun a -> Neurovec.Pipeline.All (Rl.Spaces.vf_of a, Rl.Spaces.if_of a))
         Rl.Spaces.all_actions)
    @ List.init 35 (fun j -> Neurovec.Pipeline.Sites (site_decisions n j))
  in
  Array.of_list
    (List.concat_map
       (fun plan ->
         List.concat_map
           (fun sample -> [ (plan, sample, 0); (plan, sample, 1) ])
           [ 0; 1; 2; 3; 4 ])
       plans)

let show_plan = function
  | Neurovec.Pipeline.Baseline -> "baseline"
  | Neurovec.Pipeline.All (vf, if_) -> Printf.sprintf "VF=%d,IF=%d" vf if_
  | Neurovec.Pipeline.Sites ds ->
      "sites "
      ^ String.concat ";"
          (List.map
             (fun (k, pr) -> Printf.sprintf "%d:%s" k (Minic.Pretty.pragma_to_string pr))
             ds)

(* a point's planner report and (exec, compile) bits, or the text of
   what it raised *)
let outcome (f : unit -> Vectorizer.Planner.report * float * float) =
  match f () with
  | d, e, c -> Ok (d, bits e, bits c)
  | exception ex -> Error (Printexc.to_string ex)

let measured (r : Neurovec.Pipeline.result) =
  Neurovec.Pipeline.(r.decisions, r.exec_seconds, r.compile_seconds)

(* Evaluate every point of every program twice — [reference] first, on
   memos of capacity 0, then [planned] on memos that warm as they go —
   and count the points whose outcomes differ.  [reference p] and
   [planned p] are a program's evaluators, [points p] its points. *)
let check_points ~(programs : Dataset.Program.t array)
    ~(points : Dataset.Program.t -> 'pt array) ~(show_point : 'pt -> string)
    ~reference ~planned =
  let table eval =
    Neurovec.Parpool.map
      (fun p ->
        let eval = eval p in
        Array.map (fun pt -> outcome (fun () -> eval pt)) (points p))
      programs
  in
  Neurovec.Frontend.clear ();
  let caps = List.map (fun c -> (c.Memo.name, c.Memo.cap)) (Memo.all ()) in
  let reference =
    Fun.protect
      ~finally:(fun () -> List.iter (fun (n, c) -> Memo.set_capacity n c) caps)
      (fun () ->
        List.iter (fun (n, _) -> Memo.set_capacity n 0) caps;
        table reference)
  in
  let planned = table planned in
  let show = function
    | Ok (d, e, c) ->
        Printf.sprintf "exec %Lx compile %Lx plans %s" e c
          (Neurovec.Pipeline.decisions_sig d)
    | Error msg -> msg
  in
  let bad = ref 0 and total = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j want ->
          incr total;
          let got = planned.(i).(j) in
          if got <> want then begin
            incr bad;
            if !bad <= 5 then
              Printf.eprintf "%s %s: %s vs %s\n%!"
                programs.(i).Dataset.Program.p_name
                (show_point (points programs.(i)).(j))
                (show want) (show got)
          end)
        row)
    reference;
  Alcotest.(check int)
    (Printf.sprintf "points diverging of %d" !total)
    0 !bad

(* the reference: the plan's pragmas injected into the text, re-parsed,
   re-lowered *)
let injected ~options (p : Dataset.Program.t) =
  let sites = sites_of p in
  fun (plan, sample, attempt) ->
    let decisions =
      match plan with
      | Neurovec.Pipeline.Baseline -> []
      | Neurovec.Pipeline.All (vf, if_) ->
          List.init sites (fun k -> (k, Neurovec.Injector.pragma_of ~vf ~if_))
      | Neurovec.Pipeline.Sites ds -> ds
    in
    let a = Neurovec.Frontend.checked p in
    measured
      (Relower.run_ast ~options
         ~fault_key:(Neurovec.Pipeline.plan_fault_key a plan)
         ~sample ~attempt ~name:p.Dataset.Program.p_name
         ~kernel:p.Dataset.Program.p_kernel
         ~bindings:p.Dataset.Program.p_bindings
         (Minic.Parser.parse_string
            (Neurovec.Injector.inject_source p.Dataset.Program.p_source
               ~decisions)))

let check_per_point ?(programs = engine_corpus ()) ~options () =
  check_points ~programs
    ~points:(fun p -> engine_points (sites_of p))
    ~show_point:(fun (plan, sample, attempt) ->
      Printf.sprintf "%s sample %d attempt %d" (show_plan plan) sample attempt)
    ~reference:(injected ~options)
    (* the planned side evaluates each (plan, attempt) once and derives
       every timing sample from that point, as the oracle does *)
    ~planned:(fun p ->
      let subject = Neurovec.Pipeline.subject ~options p in
      let points = Hashtbl.create 64 in
      fun (plan, sample, attempt) ->
        let pt =
          match Hashtbl.find_opt points (plan, attempt) with
          | Some pt -> pt
          | None ->
              let pt =
                match Neurovec.Pipeline.eval_planned ~attempt subject ~plan with
                | pt -> Ok pt
                | exception ex -> Error ex
              in
              Hashtbl.add points (plan, attempt) pt;
              pt
        in
        match pt with
        | Error ex -> raise ex
        | Ok pt ->
            Neurovec.Pipeline.
              ( pt.pt_report,
                exec_seconds ~options pt ~sample,
                pt.pt_compile_seconds ))

let polly_options =
  { Neurovec.Pipeline.default_options with Neurovec.Pipeline.polly = true }

let test_engines_per_point_plain () =
  check_per_point ~options:Neurovec.Pipeline.default_options ()

let test_engines_per_point_faults () =
  check_per_point ~options:fault_options ()

let test_engines_per_point_polly () =
  check_per_point
    ~programs:(Array.append Dataset.Polybench.programs (engine_corpus ()))
    ~options:polly_options ()

(* [compile FILE] honours the pragmas written in its source by running
   them as the per-site plan [Sites (Extractor.pragmas ast)].  That plan
   must measure what re-lowering the unmodified source measures, under
   the same fault key.  Beside PolyBench and the engine corpus, each
   corpus program also comes with per-site pragmas written into it. *)
let test_source_pragmas_as_plan () =
  let corpus = engine_corpus () in
  let written =
    Array.mapi
      (fun j p ->
        { p with
          Dataset.Program.p_name = p.Dataset.Program.p_name ^ "+pragmas";
          p_source =
            Neurovec.Injector.inject_source p.Dataset.Program.p_source
              ~decisions:(site_decisions (sites_of p) j) })
      corpus
  in
  let programs = Array.concat [ Dataset.Polybench.programs; corpus; written ] in
  List.iter
    (fun (leg, options) ->
      check_points ~programs
        ~points:(fun _ -> [| 0; 1 |])
        ~show_point:(Printf.sprintf "%s, attempt %d" leg)
        ~reference:(fun p attempt ->
          let a = Neurovec.Frontend.checked p in
          let plan =
            Neurovec.Pipeline.Sites
              (Neurovec.Extractor.pragmas a.Neurovec.Frontend.a_ast)
          in
          measured
            (Relower.run_ast ~options
               ~fault_key:(Neurovec.Pipeline.plan_fault_key a plan)
               ~attempt ~name:p.Dataset.Program.p_name
               ~kernel:p.Dataset.Program.p_kernel
               ~bindings:p.Dataset.Program.p_bindings a.Neurovec.Frontend.a_ast))
        ~planned:(fun p attempt ->
          let a = Neurovec.Frontend.checked p in
          measured
            (Neurovec.Pipeline.run_with_decisions ~options ~attempt p
               ~decisions:(Neurovec.Extractor.pragmas a.Neurovec.Frontend.a_ast))))
    [ ("plain", Neurovec.Pipeline.default_options); ("faults", fault_options);
      ("polly", polly_options) ]

(* The timing memo is shared across programs and keyed by loop content,
   and the per-point check above cannot see a key that drops [l_init],
   [l_bound] or [l_step]: no two of its loops collide on one.  These four
   copy loops over the same arrays differ only in one of those fields,
   and at VF=1 IF=1 no trip hint tells them apart either.  On a warm
   memo each must measure what it measures cold. *)
let test_timing_memo_loop_fields () =
  let programs =
    List.mapi
      (fun k (init, bound, step) ->
        Dataset.Program.make ~family:"test" (Printf.sprintf "copy%d" k)
          (Printf.sprintf
             "int a[256]; int b[256];\nint kernel() {\n  int i;\n  for (i = %s; i < %s; %s) a[i] = b[i];\n  return a[0];\n}\n"
             init bound step))
      [ ("0", "256", "i++"); ("4", "256", "i++"); ("0", "200", "i++");
        ("0", "256", "i += 2") ]
  in
  let cycles p =
    bits (Neurovec.Pipeline.run_with_pragma p ~vf:1 ~if_:1).Neurovec.Pipeline.exec_cycles
  in
  let cold =
    List.map
      (fun p ->
        Neurovec.Frontend.clear ();
        cycles p)
      programs
  in
  Neurovec.Frontend.clear ();
  Alcotest.(check (list int64)) "warm = cold" cold (List.map cycles programs)

(* ------------------------------------------------------------------ *)
(* Batched training: the pinned digests                                 *)
(* ------------------------------------------------------------------ *)

(* rollouts through forward_batch with pre-drawn randomness and PPO
   updates through the row backward must train the pinned bits, serial
   or across the pool, with or without injected faults *)

let check_pin ~what ~options ~pin ~jobs =
  Neurovec.Parpool.with_jobs jobs (fun () ->
      let agent, hist = Train_pins.framework_run ~options in
      Train_pins.check ~what ~pin (Train_pins.digest agent hist))

let test_batched_pin_serial () =
  check_pin ~what:"jobs 1, faults" ~options:fault_options
    ~pin:Train_pins.framework_faults_pin ~jobs:1

let test_batched_pin_pool () =
  check_pin ~what:"jobs 4, faults" ~options:fault_options
    ~pin:Train_pins.framework_faults_pin ~jobs:4

let test_batched_pin_no_faults () =
  List.iter
    (fun jobs ->
      check_pin
        ~what:(Printf.sprintf "jobs %d, no faults" jobs)
        ~options:Neurovec.Pipeline.default_options
        ~pin:Train_pins.framework_clean_pin ~jobs)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Cache stress                                                         *)
(* ------------------------------------------------------------------ *)

let test_reward_cache_stress () =
  let programs = Dataset.Loopgen.generate ~seed:66 3 in
  Neurovec.Frontend.clear ();
  Neurovec.Stats.reset ();
  let oracle = Neurovec.Reward.create programs in
  let work = Array.init 300 Fun.id in
  let hammer =
    Neurovec.Parpool.map ~jobs:4
      (fun i ->
        Neurovec.Reward.reward oracle (i mod 3)
          (Rl.Spaces.of_flat (i mod Rl.Spaces.n_flat)))
      work
  in
  (* merged counters stay coherent: every lookup recorded exactly one hit
     or one miss, whatever the interleaving *)
  let misses = Counter.get Neurovec.Stats.reward_misses in
  Alcotest.(check int) "hits + misses = lookups" 300
    (Counter.get Neurovec.Stats.reward_hits + misses);
  Alcotest.(check bool)
    "every distinct point missed at least once" true
    (misses >= 105);
  (* only 3 distinct programs ever hit the front end *)
  Alcotest.(check int) "front-end cache size" 3 (Neurovec.Frontend.size ());
  (* and the cached values equal a serial recomputation *)
  Array.iteri
    (fun i r ->
      let expect =
        Neurovec.Reward.reward oracle (i mod 3)
          (Rl.Spaces.of_flat (i mod Rl.Spaces.n_flat))
      in
      Alcotest.(check int64)
        (Printf.sprintf "work item %d" i)
        (bits expect) (bits r))
    hammer

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_order;
        Alcotest.test_case "jobs=1 serial path" `Quick test_map_serial_path;
        Alcotest.test_case "lowest-index exception" `Quick
          test_map_lowest_exception;
        Alcotest.test_case "nested maps run serial" `Quick
          test_map_nested_runs_serial;
        Alcotest.test_case "with_jobs restores" `Quick test_with_jobs_restores;
        Alcotest.test_case "default is one domain per core" `Quick
          test_default_one_domain_per_core;
        Alcotest.test_case "oversubscription note" `Quick
          test_oversubscription_note;
      ] );
    ( "parallel.equivalence",
      [
        Alcotest.test_case "sweep bit-identical under faults" `Slow
          test_sweep_bit_identical;
        Alcotest.test_case "probe_samples identical" `Slow
          test_probe_samples_identical;
        Alcotest.test_case "training checkpoints byte-identical" `Slow
          test_training_checkpoint_bytes_identical;
      ] );
    ( "parallel.engines",
      [
        Alcotest.test_case "per-action = shared per point" `Slow
          test_engines_per_point_plain;
        Alcotest.test_case "per-action = shared per point, faults" `Slow
          test_engines_per_point_faults;
        Alcotest.test_case "per-action = shared per point, polly" `Slow
          test_engines_per_point_polly;
        Alcotest.test_case "source pragmas as a plan = re-lowered as written"
          `Quick test_source_pragmas_as_plan;
        Alcotest.test_case "warm timing memo = cold per loop field" `Quick
          test_timing_memo_loop_fields;
      ] );
    ( "batched.checkpoint",
      [
        Alcotest.test_case "serial = pin under faults" `Slow
          test_batched_pin_serial;
        Alcotest.test_case "pool = pin under faults" `Slow
          test_batched_pin_pool;
        Alcotest.test_case "serial, pool = pin, clean" `Slow
          test_batched_pin_no_faults;
      ] );
    ( "parallel.stress",
      [
        Alcotest.test_case "4 domains on one reward cache" `Quick
          test_reward_cache_stress;
      ] );
  ]
