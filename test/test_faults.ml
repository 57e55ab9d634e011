(* Tests for the fault-injection layer and the hardened reward oracle:
   deterministic injection, the failure taxonomy, quarantine behaviour,
   median-of-k noisy-timing stability, and a full PPO training run under
   injected faults. *)

let prog name src = Dataset.Program.make ~family:"faults" name src

let simple_src =
  "int a[256]; int b[256];\n\
   int kernel() {\n\
  \  int i;\n\
  \  for (i = 0; i < 256; i++) a[i] = b[i] + 1;\n\
  \  return a[0];\n\
   }\n"

let spec ?(seed = 7) ?(compile = 0.0) ?(trap = 0.0) ?(fuel = 0.0)
    ?(timeout = 0.0) ?(noise = 0.0) ?(tail = 0.0) () =
  Neurovec.Faults.create ~seed ~compile ~trap ~fuel ~timeout ~noise ~tail ()

let options_with s =
  { Neurovec.Pipeline.default_options with Neurovec.Pipeline.faults = s }

let corpus n seed = Dataset.Loopgen.generate ~seed n

(* every (program, action) entry of an oracle, as (reward, failure) *)
let entries oracle programs =
  List.concat_map
    (fun i ->
      List.filter_map
        (fun a ->
          match Neurovec.Reward.entry oracle i a with
          | e -> Some (e.Neurovec.Reward.e_reward, e.Neurovec.Reward.e_failure)
          | exception Neurovec.Reward.Quarantined _ -> None)
        Rl.Spaces.all_actions)
    (List.init (Array.length programs) Fun.id)

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)
(* ------------------------------------------------------------------ *)

(* same seed => same faults, across independently constructed specs *)
let test_pick_deterministic () =
  let a = spec ~compile:0.3 ~trap:0.2 ~fuel:0.2 () in
  let b = spec ~compile:0.3 ~trap:0.2 ~fuel:0.2 () in
  for i = 0 to 199 do
    let key = Printf.sprintf "key-%d" i in
    Alcotest.(check bool)
      "same outcome" true
      (Neurovec.Faults.pick a ~key = Neurovec.Faults.pick b ~key)
  done;
  (* and a different seed changes at least one outcome *)
  let c = spec ~seed:8 ~compile:0.3 ~trap:0.2 ~fuel:0.2 () in
  Alcotest.(check bool) "seed matters" true
    (List.exists
       (fun i ->
         let key = Printf.sprintf "key-%d" i in
         Neurovec.Faults.pick a ~key <> Neurovec.Faults.pick c ~key)
       (List.init 200 Fun.id))

let test_pick_rate_sane () =
  let s = spec ~compile:0.3 () in
  let hits = ref 0 in
  for i = 0 to 999 do
    match Neurovec.Faults.pick s ~key:(Printf.sprintf "k%d" i) with
    | Some Neurovec.Faults.Compile_fault -> incr hits
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rate %d/1000 near 0.3" !hits)
    true
    (!hits > 200 && !hits < 400)

(* The bits of individual draws, pinned: every fault decision and noise
   sample is a function of these bytes, and nothing else compares them
   against an independent reference (the jobs-N gates compare the same
   code with itself).  Covers seed 0, negative and extreme seeds, an
   empty key and keys holding NUL. *)
let test_draw_bits_pinned () =
  let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f) in
  List.iter
    (fun (seed, key, salt, want) ->
      Alcotest.(check string)
        (Printf.sprintf "hash01 seed=%d key=%S salt=%S" seed key salt)
        want
        (bits (Neurovec.Faults.hash01 (spec ~seed ()) ~key ~salt)))
    [ (0, "", "compile", "3fe050c137ecd5e6");
      (-17, "loop/vf=4/if=2", "trap", "3fb0320e92817184");
      (7, "a\x00b", "fuel", "3fd98dacd3909e52");
      (123456789, "matmul|plan=8x2", "timeout", "3feba53dd16a923f");
      (42, "k", "transient\x003", "3fe78d1ea8aa0127");
      (max_int, "x", "stall", "3fb1cccf87586b27");
      (min_int, "\x00", "", "3fd2866721540826") ];
  (* a transient draw [v] hits at rate succ v and misses at rate v: both
     together pin the draw's bits *)
  List.iter
    (fun (seed, key, attempt, want) ->
      let v = Int64.float_of_bits (Int64.of_string ("0x" ^ want)) in
      let hit p =
        Neurovec.Faults.transient_hit
          (Neurovec.Faults.create ~seed ~transient:p ())
          ~key ~attempt
      in
      let what =
        Printf.sprintf "transient seed=%d key=%S attempt=%d" seed key attempt
      in
      Alcotest.(check bool) (what ^ " misses at its draw") false (hit v);
      Alcotest.(check bool) (what ^ " hits just above") true
        (hit (Float.succ v)))
    [ (42, "k", 3, "3fe78d1ea8aa0127");
      (-5, "a\x00", 11, "3fe58c0b313d62ae");
      (0, "", 0, "3fc1b9eb98fcd093") ];
  List.iter
    (fun (seed, key, sample, noise, tail, want) ->
      Alcotest.(check string)
        (Printf.sprintf "noise_factor seed=%d key=%S sample=%d" seed key sample)
        want
        (bits
           (Neurovec.Faults.noise_factor (spec ~seed ~noise ~tail ()) ~key
              ~sample)))
    [ (0, "", 0, 0.1, 0.02, "3fefaf9616378a13");
      (-9, "p\x00q", 4, 0.1, 0.02, "3ff22a3350187e46");
      (31, "loop-id|vf=16", 2, 0.25, 0.9, "402b259ca3525269");
      (5, "k", 1, 0.0, 0.5, "3ff0000000000000") ]

(* same seed => bit-identical rewards through the whole oracle *)
let test_oracle_deterministic () =
  let programs = corpus 10 51 in
  let mk () =
    Neurovec.Reward.create
      ~options:
        (options_with
           (spec ~compile:0.2 ~trap:0.1 ~fuel:0.1 ~timeout:0.1 ~noise:0.1 ()))
      programs
  in
  let a = entries (mk ()) programs and b = entries (mk ()) programs in
  Alcotest.(check bool) "identical rewards" true (a = b);
  Alcotest.(check bool) "nonempty" true (a <> [])

(* ------------------------------------------------------------------ *)
(* Failure taxonomy                                                     *)
(* ------------------------------------------------------------------ *)

let count_failures kind es =
  List.length (List.filter (fun (_, f) -> f = Some kind) es)

let taxonomy_case ~kind s () =
  Neurovec.Stats.reset ();
  let programs = corpus 12 52 in
  let oracle = Neurovec.Reward.create ~options:(options_with s) programs in
  let es = entries oracle programs in
  let n = count_failures kind es in
  Alcotest.(check bool) "some actions fail" true (n > 0);
  (* every failed action carries the penalty reward, never NaN *)
  List.iter
    (fun (r, f) ->
      Alcotest.(check bool) "finite reward" true (Float.is_finite r);
      if f <> None then Alcotest.(check (float 1e-9)) "penalty" (-9.0) r)
    es;
  (* and the scoreboard saw them *)
  Alcotest.(check bool) "stats recorded" true
    (Neurovec.Stats.failure_count (Neurovec.Reward.failure_name kind) > 0)

let test_taxonomy_compile =
  taxonomy_case ~kind:Neurovec.Reward.Compile_failed (spec ~compile:0.4 ())

let test_taxonomy_trap =
  taxonomy_case ~kind:Neurovec.Reward.Trap (spec ~trap:0.4 ())

let test_taxonomy_fuel =
  taxonomy_case ~kind:Neurovec.Reward.Fuel_exhausted (spec ~fuel:0.4 ())

let test_taxonomy_timeout =
  taxonomy_case ~kind:Neurovec.Reward.Timed_out (spec ~timeout:0.5 ())

(* ------------------------------------------------------------------ *)
(* Quarantine                                                           *)
(* ------------------------------------------------------------------ *)

(* a baseline failure quarantines the program; later lookups re-raise
   without re-measuring *)
let test_baseline_failure_quarantines () =
  let programs = corpus 20 53 in
  let oracle =
    Neurovec.Reward.create ~options:(options_with (spec ~compile:0.5 ()))
      programs
  in
  let quarantined = ref 0 and ok = ref 0 in
  Array.iteri
    (fun i _ ->
      match Neurovec.Reward.baseline oracle i with
      | _ -> incr ok
      | exception Neurovec.Reward.Quarantined _ -> incr quarantined)
    programs;
  Alcotest.(check bool) "some quarantined" true (!quarantined > 0);
  Alcotest.(check bool) "some survive" true (!ok > 0);
  Alcotest.(check int) "report matches" !quarantined
    (List.length (Neurovec.Reward.quarantine_report oracle));
  (* the memoized re-raise costs no new evaluation *)
  let evals = Counter.get Neurovec.Stats.pipeline_runs in
  Array.iteri
    (fun i _ ->
      try ignore (Neurovec.Reward.baseline oracle i)
      with Neurovec.Reward.Quarantined _ -> ())
    programs;
  Alcotest.(check int) "no re-measurement" evals
    (Counter.get Neurovec.Stats.pipeline_runs)

(* regression: a zero-cost baseline must quarantine, not divide by zero
   and send NaN rewards into the PPO advantages *)
let test_zero_baseline_quarantined () =
  let p = prog "empty" "int kernel() { return 0; }" in
  let oracle = Neurovec.Reward.create [| p |] in
  (match Neurovec.Reward.reward oracle 0 { Rl.Spaces.vf_idx = 2; if_idx = 1 } with
  | r -> Alcotest.failf "expected quarantine, got reward %f" r
  | exception Neurovec.Reward.Quarantined (name, why) ->
      Alcotest.(check string) "program name" "empty" name;
      Alcotest.(check bool) "reason mentions the baseline" true
        (String.length why > 0));
  (* and the framework drops it instead of training on NaN *)
  let fw =
    Neurovec.Framework.create ~seed:1 [| p; prog "ok" simple_src |]
  in
  Alcotest.(check int) "one healthy sample" 1
    (Array.length fw.Neurovec.Framework.samples);
  Alcotest.(check int) "one skip recorded" 1
    (List.length fw.Neurovec.Framework.skipped)

(* ------------------------------------------------------------------ *)
(* Noisy timing: median-of-k with MAD rejection                         *)
(* ------------------------------------------------------------------ *)

let test_robust_estimate () =
  Alcotest.(check (float 1e-9)) "median" 2.0
    (Neurovec.Reward.robust_estimate [ 1.0; 2.0; 3.0 ]);
  (* a heavy-tailed spike is rejected *)
  Alcotest.(check (float 0.11)) "spike rejected" 2.0
    (Neurovec.Reward.robust_estimate [ 1.9; 2.0; 2.1; 2.05; 80.0 ])

let test_noisy_reward_stability () =
  Neurovec.Stats.reset ();
  let p = prog "noisy" simple_src in
  let clean = Neurovec.Reward.create [| p |] in
  let noisy =
    Neurovec.Reward.create
      ~options:(options_with (spec ~noise:0.1 ~tail:0.05 ()))
      ~noise_samples:7 [| p |]
  in
  let a = { Rl.Spaces.vf_idx = 3; if_idx = 1 } in
  let r_clean = Neurovec.Reward.reward clean 0 a in
  let r_noisy = Neurovec.Reward.reward noisy 0 a in
  Alcotest.(check bool)
    (Printf.sprintf "close to clean (%.3f vs %.3f)" r_noisy r_clean)
    true
    (abs_float (r_noisy -. r_clean) < 0.3);
  (* extra samples were actually taken... *)
  Alcotest.(check bool) "timing retries recorded" true
    (Counter.get Neurovec.Stats.timing_retries >= 12);
  (* ...and the cached reward is stable across lookups *)
  Alcotest.(check (float 0.0)) "cached" r_noisy
    (Neurovec.Reward.reward noisy 0 a)

(* Only the noise depends on the timing sample, so the oracle evaluates
   each point once and derives the other four samples from it: a brute
   force under noise alone costs the 36 evaluations a clean one does
   (baseline + 35 actions), not five times as many. *)
let test_noisy_oracle_evaluates_once () =
  let oracle =
    Neurovec.Reward.create
      ~options:(options_with (spec ~noise:0.1 ~tail:0.05 ()))
      ~noise_samples:5 [| prog "noisy-once" simple_src |]
  in
  let runs = Counter.get Neurovec.Stats.pipeline_runs in
  let resamples = Counter.get Neurovec.Stats.timing_retries in
  ignore (Neurovec.Reward.brute_force oracle 0);
  Alcotest.(check int) "one evaluation per point" 36
    (Counter.get Neurovec.Stats.pipeline_runs - runs);
  Alcotest.(check int) "four derived resamples per point" (36 * 4)
    (Counter.get Neurovec.Stats.timing_retries - resamples)

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                         *)
(* ------------------------------------------------------------------ *)

let test_of_string () =
  let s, warnings =
    Neurovec.Faults.of_string "seed=3,compile=0.1,noise=0.05,tail=0.01"
  in
  Alcotest.(check int) "seed" 3 s.Neurovec.Faults.f_seed;
  Alcotest.(check (float 1e-12)) "compile" 0.1 s.Neurovec.Faults.p_compile;
  Alcotest.(check (float 1e-12)) "noise" 0.05 s.Neurovec.Faults.noise;
  Alcotest.(check (list string)) "no warnings" [] warnings;
  Alcotest.(check bool) "active" true (Neurovec.Faults.active s)

let test_of_string_warns () =
  let s, warnings =
    Neurovec.Faults.of_string "compile=lots,bogus=1,trap=0.2"
  in
  Alcotest.(check int) "two warnings" 2 (List.length warnings);
  Alcotest.(check (float 1e-12)) "bad value ignored" 0.0
    s.Neurovec.Faults.p_compile;
  Alcotest.(check (float 1e-12)) "good field kept" 0.2
    s.Neurovec.Faults.p_trap

let test_descriptor_in_options_key () =
  let plain = Neurovec.Pipeline.options_key Neurovec.Pipeline.default_options in
  let faulty =
    Neurovec.Pipeline.options_key (options_with (spec ~compile:0.1 ()))
  in
  Alcotest.(check bool) "inactive spec adds nothing" true
    (Neurovec.Faults.descriptor Neurovec.Faults.none = "");
  Alcotest.(check bool) "fault spec changes the cache key" true
    (plain <> faulty)

(* ------------------------------------------------------------------ *)
(* Training under faults (the acceptance scenario)                      *)
(* ------------------------------------------------------------------ *)

(* PPO training over a corpus with injected compile failures, traps, fuel
   exhaustion, compile-time spikes and 10% timing noise completes without
   an uncaught exception and reports what it dropped.  When the CI smoke
   job sets NEUROVEC_FAULTS, that spec is used instead. *)
let test_training_survives_faults () =
  Neurovec.Stats.reset ();
  let s =
    match Sys.getenv_opt "NEUROVEC_FAULTS" with
    | Some text when text <> "" -> fst (Neurovec.Faults.of_string text)
    | _ ->
        spec ~seed:5 ~compile:0.06 ~trap:0.05 ~fuel:0.04 ~timeout:0.04
          ~noise:0.1 ~tail:0.02 ()
  in
  let programs = corpus 30 21 in
  let fw =
    Neurovec.Framework.create ~options:(options_with s) ~seed:2 programs
  in
  Alcotest.(check int) "every program accounted for" 30
    (Array.length fw.Neurovec.Framework.samples
    + List.length fw.Neurovec.Framework.skipped);
  Alcotest.(check bool) "fault rates leave something to train on" true
    (Array.length fw.Neurovec.Framework.samples > 0);
  let hist =
    Neurovec.Framework.train fw
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 100 }
      ~total_steps:300
  in
  Alcotest.(check int) "three updates" 3 (List.length hist);
  List.iter
    (fun st ->
      Alcotest.(check bool) "finite reward mean" true
        (Float.is_finite st.Rl.Ppo.reward_mean);
      Alcotest.(check bool) "finite loss" true (Float.is_finite st.Rl.Ppo.loss))
    hist;
  (* the scoreboard surfaces what happened *)
  let snap = Neurovec.Stats.snapshot () in
  Alcotest.(check bool) "failures recorded" true
    (snap.Neurovec.Stats.failures <> []);
  Alcotest.(check int) "quarantines recorded"
    (List.length fw.Neurovec.Framework.skipped)
    (Counter.get Neurovec.Stats.quarantines)

let suite =
  [
    ( "faults.inject",
      [
        Alcotest.test_case "pick is deterministic" `Quick
          test_pick_deterministic;
        Alcotest.test_case "rate near nominal" `Quick test_pick_rate_sane;
        Alcotest.test_case "draw bits pinned" `Quick test_draw_bits_pinned;
        Alcotest.test_case "oracle deterministic under faults" `Slow
          test_oracle_deterministic;
      ] );
    ( "faults.taxonomy",
      [
        Alcotest.test_case "compile failures -> penalty" `Quick
          test_taxonomy_compile;
        Alcotest.test_case "traps -> penalty" `Quick test_taxonomy_trap;
        Alcotest.test_case "fuel exhaustion -> penalty" `Quick
          test_taxonomy_fuel;
        Alcotest.test_case "timeout spikes -> penalty" `Quick
          test_taxonomy_timeout;
      ] );
    ( "faults.quarantine",
      [
        Alcotest.test_case "baseline failure quarantines" `Quick
          test_baseline_failure_quarantines;
        Alcotest.test_case "zero baseline quarantined (regression)" `Quick
          test_zero_baseline_quarantined;
      ] );
    ( "faults.noise",
      [
        Alcotest.test_case "robust estimate (MAD)" `Quick test_robust_estimate;
        Alcotest.test_case "median-of-k reward stability" `Quick
          test_noisy_reward_stability;
        Alcotest.test_case "a noisy oracle evaluates each point once" `Quick
          test_noisy_oracle_evaluates_once;
      ] );
    ( "faults.spec",
      [
        Alcotest.test_case "of_string" `Quick test_of_string;
        Alcotest.test_case "of_string warns" `Quick test_of_string_warns;
        Alcotest.test_case "descriptor keys the cache" `Quick
          test_descriptor_in_options_key;
      ] );
    ( "faults.training",
      [
        Alcotest.test_case "PPO survives injected faults" `Slow
          test_training_survives_faults;
      ] );
  ]
