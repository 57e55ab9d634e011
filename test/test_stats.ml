(* The text report is an interface: perfbench/report.ml parses it, CI
   greps it, and a daemon's only window is its [stats] reply.  Pin it
   byte for byte, with every printed count set to a distinct value so a
   swapped or dropped field shows. *)

let bump (t : 'a Memo.t) ~hits ~misses =
  Counter.add t.Memo.c_hits hits;
  Counter.add t.Memo.c_misses misses

let test_report_lines_pinned () =
  let module S = Neurovec.Stats in
  Fun.protect ~finally:S.reset @@ fun () ->
  S.reset ();
  bump Neurovec.Frontend.artifacts ~hits:11 ~misses:2;
  bump Neurovec.Frontend.prevecs ~hits:13 ~misses:5;
  bump Neurovec.Pipeline.points ~hits:15 ~misses:7;
  bump Machine.Timing.memo ~hits:17 ~misses:9;
  bump Neurovec.Pipeline.verdicts ~hits:36 ~misses:3;
  bump Ir_vm.code_cache ~hits:40 ~misses:6;
  Counter.add Ir_vm.code_cache.Memo.c_evictions 33;
  List.iter
    (fun (c, n) -> Counter.add c n)
    [ (S.reward_hits, 19); (S.reward_misses, 21); (S.pipeline_runs, 22);
      (S.quarantines, 23); (S.timing_retries, 24); (S.transient_retries, 25);
      (S.watchdog_cancels, 26); (S.breaker_trips, 27);
      (S.journal_appends, 28); (S.journal_replayed, 29);
      (S.serve_accepted, 30); (S.serve_shed, 31); (S.serve_failed, 37);
      (S.serve_batches, 4); (S.serve_batched, 10); (S.store_hits, 32);
      (S.store_misses, 34); (S.store_crc_rejects, 35);
      (S.verify_refutes, 38); (S.verify_cx, 39); (Ir_vm.compiles, 42);
      (Ir_vm.fallbacks, 43); (Ir_vm.vm_steps, 44);
      (Verify.Tv.tree_steps, 45); (Ir_vm.deopts, 46);
      (Rl.Sentinel.trips, 47); (Rl.Sentinel.rollbacks, 48);
      (Fsio.injected, 49); (Fsio.write_errors, 50); (Fsio.tmp_swept, 51);
      (Verify.Tv.proved, 52); (Verify.Tv.unproved, 53) ];
  Counter.max_to S.serve_batch_max 5;
  Counter.max_to S.serve_batch_max 3;
  List.iter S.record_failure [ "trap"; "compile"; "trap"; "fuel"; "trap" ];
  let expected =
    [ "--- pipeline stats ---";
      "phase             calls     total ms      mean us";
      "front-end cache: 11 hits / 2 misses (84.6% hit rate)";
      "prevec cache:    13 hits / 5 misses (72.2% hit rate)";
      "point memo:      15 hits / 7 misses (68.2% hit rate)";
      "timing memo:     17 hits / 9 misses (65.4% hit rate)";
      "reward cache:    19 hits / 21 misses (47.5% hit rate)";
      "pipeline evaluations: 22";
      "reward failures: compile=1 fuel=1 trap=3";
      "quarantined programs: 23";
      "timing resamples (median-of-k): 24";
      "transient retries: 25";
      "watchdog cancellations: 26";
      "circuit-breaker trips: 27";
      "reward journal: 28 appended / 29 replayed";
      "serve requests: 30 accepted / 31 shed / 37 failed / 25 retried";
      "serve batches: 4 (mean size 2.5, max 5)";
      "on-disk store:   32 hits / 34 misses (48.5% hit rate), 35 CRC rejects";
      "verify cache:    36 hits / 3 misses (92.3% hit rate), 38 refutations \
       (39 counterexamples)";
      "verify proofs: 52 proved / 53 by the ladder";
      "vm code cache:   40 hits / 6 misses (87.0% hit rate), 42 compiled / 43 \
       fallbacks, 33 evictions";
      "interpreted steps: 44 vm / 45 tree-walked, 46 deopts";
      "sentinels: 47 trips / 48 rollbacks";
      "disk faults: 49 injected / 50 write errors absorbed";
      "stale temp files swept: 51";
      "" ]
  in
  (* the eviction line lists every table in the process, test tables
     included, so it is left out *)
  let lines =
    List.filter
      (fun l ->
        not (String.length l >= 16 && String.sub l 0 16 = "cache evictions:"))
      (String.split_on_char '\n' (S.report ()))
  in
  Alcotest.(check (list string)) "report lines" expected lines

let suite =
  [
    ( "stats.report",
      [
        Alcotest.test_case "every printed count lands in its own field"
          `Quick test_report_lines_pinned;
      ] );
  ]
