(* The supervised evaluation engine: watchdogs, deterministic retries,
   circuit breakers, the write-ahead reward journal, and graceful
   shutdown.

   Everything here leans on one invariant: supervision must never change
   *what* a run computes, only how failures are contained.  Fault
   outcomes (stalls, transients, breaker trips) are pure functions of the
   fault spec, so every scenario is checked bit-identical between
   --jobs 1 and --jobs 4, and a killed-and-resumed training run must
   produce the same checkpoint bytes as an uninterrupted one. *)

let bits = Int64.bits_of_float

(* run [f] under a scoped supervision configuration, restoring the
   process-wide knobs (and any shutdown request) afterwards *)
let with_supervision ?deadline ?retries ?breaker ?(backoff = 0.0)
    (f : unit -> 'a) : 'a =
  let d0 = Neurovec.Supervisor.deadline () in
  let r0 = Neurovec.Supervisor.max_retries () in
  let b0 = Neurovec.Supervisor.breaker_window () in
  Option.iter Neurovec.Supervisor.set_deadline deadline;
  Option.iter Neurovec.Supervisor.set_max_retries retries;
  Option.iter Neurovec.Supervisor.set_breaker_window breaker;
  Neurovec.Supervisor.set_retry_backoff backoff;
  Fun.protect
    ~finally:(fun () ->
      Neurovec.Supervisor.set_deadline d0;
      Neurovec.Supervisor.set_max_retries r0;
      Neurovec.Supervisor.set_breaker_window b0;
      Neurovec.Supervisor.set_retry_backoff 0.002;
      Neurovec.Supervisor.reset_shutdown ())
    f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Parpool cooperative cancellation                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_cancel_skips_queued () =
  (* item 0 fails immediately; every other item sleeps.  The cancel flag
     must stop the pool from claiming the long tail of queued items, and
     the failure surfaced must be item 0's. *)
  let executed = Atomic.make 0 in
  (match
     Neurovec.Parpool.map ~jobs:4
       (fun i ->
         Atomic.incr executed;
         if i = 0 then failwith "poison" else Thread.delay 0.02;
         i)
       (Array.init 64 Fun.id)
   with
  | _ -> Alcotest.fail "expected the poisoned item to raise"
  | exception Failure msg ->
      Alcotest.(check string) "lowest-indexed failure" "poison" msg);
  let n = Atomic.get executed in
  Alcotest.(check bool)
    (Printf.sprintf "queued items were skipped (%d of 64 ran)" n)
    true
    (n < 32 && n >= 1)

(* ------------------------------------------------------------------ *)
(* Fault-spec extensions                                                *)
(* ------------------------------------------------------------------ *)

let test_faults_stall_transient_spec () =
  let spec, warnings =
    Neurovec.Faults.of_string "seed=5,stall=0.25,transient=0.5"
  in
  Alcotest.(check (list string)) "no warnings" [] warnings;
  Alcotest.(check bool) "active" true (Neurovec.Faults.active spec);
  let descr = Neurovec.Faults.descriptor spec in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "descriptor carries stall rate" true
    (contains descr "st=0.25");
  Alcotest.(check bool) "descriptor carries transient rate" true
    (contains descr "tr=0.5");
  (* specs that predate the knobs keep their cache keys *)
  let old_spec = Neurovec.Faults.create ~seed:5 ~compile:0.1 () in
  Alcotest.(check bool) "pre-existing descriptors unchanged" false
    (contains (Neurovec.Faults.descriptor old_spec) "st=");
  (* pure in (seed, key, attempt): repeated queries agree, and with a
     rate this high some point must both fail at one attempt and succeed
     at another *)
  let hits =
    List.init 20 (fun a ->
        Neurovec.Faults.transient_hit spec ~key:"k" ~attempt:a)
  in
  Alcotest.(check (list bool))
    "transient_hit is deterministic" hits
    (List.init 20 (fun a ->
         Neurovec.Faults.transient_hit spec ~key:"k" ~attempt:a));
  Alcotest.(check bool) "some attempt fails" true (List.mem true hits);
  Alcotest.(check bool) "some attempt succeeds" true (List.mem false hits);
  Alcotest.(check bool) "zero rate never stalls" false
    (Neurovec.Faults.stall_hit (Neurovec.Faults.create ()) ~key:"k");
  (* unknown keys are reported, valid fields still land *)
  let spec2, warnings2 = Neurovec.Faults.of_string "stall=0.1,wibble=3" in
  Alcotest.(check bool) "unknown key reported" true
    (List.exists (fun w -> contains w "wibble") warnings2);
  Alcotest.(check bool) "valid fields still parsed" true
    (Neurovec.Faults.active spec2)

(* ------------------------------------------------------------------ *)
(* Watchdog: stalled evaluations die as Hung, identically at any jobs   *)
(* ------------------------------------------------------------------ *)

let stall_faults =
  Neurovec.Faults.create ~seed:21 ~compile:0.05 ~stall:0.15 ~transient:0.2 ()

let stall_options =
  { Neurovec.Pipeline.default_options with
    Neurovec.Pipeline.faults = stall_faults }

let test_watchdog_deterministic () =
  with_supervision ~deadline:0.03 ~retries:2 (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:101 6 in
      let run jobs =
        Neurovec.Stats.reset ();
        let sw =
          Test_parallel.sweep ~options:stall_options ~jobs programs
        in
        ( sw, Neurovec.Stats.snapshot (),
          Counter.get Neurovec.Stats.watchdog_cancels,
          Counter.get Neurovec.Stats.transient_retries )
      in
      let sw1, snap1, cancels1, retries1 = run 1 in
      let sw4, _, cancels4, retries4 = run 4 in
      Test_parallel.check_sweeps_equal sw1 sw4;
      Alcotest.(check bool) "watchdog fired" true (cancels1 > 0);
      Alcotest.(check int) "cancellations identical across jobs" cancels1
        cancels4;
      Alcotest.(check int) "transient retries identical across jobs"
        retries1 retries4;
      Alcotest.(check bool) "hung failures in the taxonomy" true
        (match List.assoc_opt "hung" snap1.Neurovec.Stats.failures with
        | Some n -> n > 0
        | None -> false))

(* ------------------------------------------------------------------ *)
(* Retries: transient points recover to the fault-free rewards          *)
(* ------------------------------------------------------------------ *)

let test_transient_retry_recovers () =
  with_supervision ~retries:3 (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:102 4 in
      let options =
        { Neurovec.Pipeline.default_options with
          Neurovec.Pipeline.faults =
            Neurovec.Faults.create ~seed:22 ~transient:0.3 () }
      in
      Neurovec.Frontend.clear ();
      Neurovec.Stats.reset ();
      let faulty = Neurovec.Reward.create ~options programs in
      let plain = Neurovec.Reward.create programs in
      let compared = ref 0 in
      Array.iteri
        (fun idx _ ->
          match
            List.iter
              (fun a ->
                let ef = Neurovec.Reward.entry faulty idx a in
                (* a retried-and-recovered point must land on the exact
                   fault-free reward; exhausted points show up as
                   penalized Transient failures instead *)
                if ef.Neurovec.Reward.e_failure = None then begin
                  incr compared;
                  Alcotest.(check int64)
                    (Printf.sprintf "program %d reward bits" idx)
                    (bits (Neurovec.Reward.reward plain idx a))
                    (bits ef.Neurovec.Reward.e_reward)
                end)
              Rl.Spaces.all_actions
          with
          | () -> ()
          | exception Neurovec.Reward.Quarantined _ -> ())
        programs;
      Alcotest.(check bool) "some points compared" true (!compared > 50);
      Alcotest.(check bool) "retries happened" true
        (Counter.get Neurovec.Stats.transient_retries > 0))

let transient_failures () =
  Option.value ~default:0
    (List.assoc_opt "transient"
       (Neurovec.Stats.snapshot ()).Neurovec.Stats.failures)

let test_retry_exhaustion_deterministic () =
  let programs = Dataset.Loopgen.generate ~seed:103 5 in
  let options =
    { Neurovec.Pipeline.default_options with
      Neurovec.Pipeline.faults =
        Neurovec.Faults.create ~seed:23 ~transient:0.6 () }
  in
  let run retries jobs =
    with_supervision ~retries (fun () ->
        Neurovec.Stats.reset ();
        let sw = Test_parallel.sweep ~options ~jobs programs in
        (sw, transient_failures ()))
  in
  let sw_a, exhausted_a = run 0 1 in
  let sw_b, exhausted_b = run 0 4 in
  Test_parallel.check_sweeps_equal sw_a sw_b;
  Alcotest.(check int) "exhaustion count identical across jobs" exhausted_a
    exhausted_b;
  Alcotest.(check bool) "no retries means exhausted points" true
    (exhausted_a > 0);
  (* pointwise: a point exhausted under a budget of 3 retries failed on
     attempts 0..3, so it is also exhausted under a budget of 0 — count
     over the programs measurable at both budgets and the budgeted count
     must come out strictly smaller *)
  let exhausted_over retries survivors =
    with_supervision ~retries (fun () ->
        Neurovec.Frontend.clear ();
        let oracle = Neurovec.Reward.create ~options programs in
        let n = ref 0 in
        List.iter
          (fun idx ->
            List.iter
              (fun a ->
                if
                  (Neurovec.Reward.entry oracle idx a)
                    .Neurovec.Reward.e_failure
                  = Some Neurovec.Reward.Transient
                then incr n)
              Rl.Spaces.all_actions)
          survivors;
        !n)
  in
  (* programs whose baseline succeeds with no retries succeed at attempt
     0, hence survive under any budget: a common, comparable set *)
  let survivors =
    with_supervision ~retries:0 (fun () ->
        Neurovec.Frontend.clear ();
        let oracle = Neurovec.Reward.create ~options programs in
        List.filter
          (fun idx ->
            match Neurovec.Reward.baseline oracle idx with
            | _ -> true
            | exception Neurovec.Reward.Quarantined _ -> false)
          (List.init (Array.length programs) Fun.id))
  in
  Alcotest.(check bool) "some programs measurable without retries" true
    (survivors <> []);
  let count0 = exhausted_over 0 survivors in
  let count3 = exhausted_over 3 survivors in
  Alcotest.(check bool)
    (Printf.sprintf "a retry budget rescues points (%d -> %d)" count0 count3)
    true
    (count0 > 0 && count3 < count0)

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                      *)
(* ------------------------------------------------------------------ *)

let test_breaker_trips_deterministic () =
  with_supervision ~retries:0 ~breaker:2 (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:104 30 in
      let options =
        { Neurovec.Pipeline.default_options with
          Neurovec.Pipeline.faults =
            Neurovec.Faults.create ~seed:13 ~compile:0.7 () }
      in
      let run jobs =
        Neurovec.Stats.reset ();
        let sw = Test_parallel.sweep ~options ~jobs programs in
        (sw, Counter.get Neurovec.Stats.breaker_trips)
      in
      let (r1, q1), trips1 = run 1 in
      let (r4, q4), trips4 = run 4 in
      Test_parallel.check_sweeps_equal (r1, q1) (r4, q4);
      Alcotest.(check bool)
        (Printf.sprintf "breaker tripped (%d trips)" trips1)
        true (trips1 > 0);
      Alcotest.(check int) "trips identical across jobs" trips1 trips4;
      let contains hay needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "structured breaker report" true
        (List.exists
           (fun (_, why) ->
             contains why "circuit breaker" && contains why "compile=")
           q1))

let test_breaker_disabled_without_faults () =
  (* fault-free sweeps must never see the breaker: golden rewards and
     quarantine behaviour are unchanged *)
  with_supervision ~breaker:5 (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:105 4 in
      Neurovec.Stats.reset ();
      let results, quarantined =
        Test_parallel.sweep ~options:Neurovec.Pipeline.default_options
          ~jobs:1 programs
      in
      Alcotest.(check int) "no trips"
        0 (Counter.get Neurovec.Stats.breaker_trips);
      Alcotest.(check (list (pair string string))) "no quarantine" []
        quarantined;
      Array.iter
        (fun r -> Alcotest.(check bool) "swept" true (r <> None))
        results)

(* ------------------------------------------------------------------ *)
(* Write-ahead journal                                                  *)
(* ------------------------------------------------------------------ *)

let journal_options =
  { Neurovec.Pipeline.default_options with
    Neurovec.Pipeline.faults =
      Neurovec.Faults.create ~seed:11 ~compile:0.15 () }

let with_temp_file suffix f =
  let path = Filename.temp_file "neurovec_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_journal_replay_serves_cache () =
  with_supervision ~retries:1 (fun () ->
      with_temp_file ".journal" (fun path ->
          Sys.remove path;
          let programs = Dataset.Loopgen.generate ~seed:106 5 in
          Neurovec.Frontend.clear ();
          let oracle = Neurovec.Reward.create ~options:journal_options programs in
          Neurovec.Reward.set_journal oracle path;
          let first = Neurovec.Reward.sweep_all oracle in
          let first_q = Neurovec.Reward.quarantine_report oracle in
          Neurovec.Reward.close_journal oracle;
          (* a fresh oracle fed the journal must answer the whole sweep
             without a single pipeline run *)
          let restored =
            Neurovec.Reward.create ~options:journal_options programs
          in
          let n = Neurovec.Reward.replay_journal restored path in
          Alcotest.(check bool) "records replayed" true (n > 0);
          Neurovec.Stats.reset ();
          let again = Neurovec.Reward.sweep_all restored in
          Alcotest.(check int) "no re-evaluation: reward misses" 0
            (Counter.get Neurovec.Stats.reward_misses);
          Alcotest.(check int) "no re-evaluation: pipeline runs" 0
            (Counter.get Neurovec.Stats.pipeline_runs);
          Test_parallel.check_sweeps_equal (first, first_q)
            (again, Neurovec.Reward.quarantine_report restored);
          (* a torn final record (crash mid-append) is skipped, not fatal,
             and the re-measured sweep still agrees *)
          let full = read_file path in
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 (String.length full - 3));
          close_out oc;
          let torn = Neurovec.Reward.create ~options:journal_options programs in
          let n' = Neurovec.Reward.replay_journal torn path in
          Alcotest.(check bool) "torn tail dropped" true (n' < n);
          Test_parallel.check_sweeps_equal (first, first_q)
            ( Neurovec.Reward.sweep_all torn,
              Neurovec.Reward.quarantine_report torn );
          Alcotest.(check int) "replay of a missing file is a no-op" 0
            (Neurovec.Reward.replay_journal
               (Neurovec.Reward.create ~options:journal_options programs)
               (path ^ ".does-not-exist"))))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume under stall + transient faults                       *)
(* ------------------------------------------------------------------ *)

let resume_hyper = { Rl.Ppo.default_hyper with batch_size = 64 }

let test_kill_and_resume_bit_exact () =
  with_supervision ~deadline:0.02 ~retries:2 (fun () ->
      with_temp_file ".agent" (fun ref_path ->
          with_temp_file ".agent" (fun kill_path ->
              with_temp_file ".journal" (fun journal ->
                  Sys.remove journal;
                  let corpus () = Dataset.Loopgen.generate ~seed:88 8 in
                  (* uninterrupted reference *)
                  Neurovec.Frontend.clear ();
                  let fw =
                    Neurovec.Framework.create ~options:stall_options ~seed:3
                      (corpus ())
                  in
                  ignore
                    (Neurovec.Framework.train fw ~hyper:resume_hyper
                       ~total_steps:256 ~checkpoint_path:ref_path);
                  (* same run, stopped after two updates (the graceful
                     shutdown path: stop lands on an update boundary and
                     the checkpoint + journal are flushed) *)
                  Neurovec.Frontend.clear ();
                  let updates = ref 0 in
                  let fw1 =
                    Neurovec.Framework.create ~options:stall_options
                      ~journal ~seed:3 (corpus ())
                  in
                  ignore
                    (Neurovec.Framework.train fw1 ~hyper:resume_hyper
                       ~total_steps:256 ~checkpoint_path:kill_path
                       ~stop:(fun () -> !updates >= 2)
                       ~progress:(fun _ -> incr updates));
                  Neurovec.Reward.close_journal
                    fw1.Neurovec.Framework.oracle;
                  Alcotest.(check int) "stopped early" 2 !updates;
                  (* resume: restore the agent and training state, replay
                     the journal, finish the step budget *)
                  Neurovec.Frontend.clear ();
                  let agent, state = Rl.Checkpoint.load_full kill_path in
                  Alcotest.(check bool) "resumable state present" true
                    (state <> None);
                  Neurovec.Stats.reset ();
                  let fw2 =
                    Neurovec.Framework.create ~agent ~options:stall_options
                      ~journal ~seed:3 (corpus ())
                  in
                  Alcotest.(check bool) "journal replayed on resume" true
                    (Counter.get Neurovec.Stats.journal_replayed > 0);
                  ignore
                    (Neurovec.Framework.train fw2 ~hyper:resume_hyper
                       ~total_steps:256 ~checkpoint_path:kill_path
                       ?resume:state);
                  Alcotest.(check bool)
                    "resumed checkpoint bytes = uninterrupted bytes" true
                    (read_file ref_path = read_file kill_path)))))

(* ------------------------------------------------------------------ *)
(* Graceful shutdown plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_shutdown_stops_at_update_boundary () =
  with_supervision (fun () ->
      with_temp_file ".agent" (fun path ->
          Neurovec.Frontend.clear ();
          Neurovec.Supervisor.reset_shutdown ();
          let corpus = Dataset.Loopgen.generate ~seed:107 3 in
          let fw = Neurovec.Framework.create ~seed:3 corpus in
          let history =
            Neurovec.Framework.train fw ~hyper:resume_hyper
              ~total_steps:192 ~checkpoint_path:path
              ~stop:Neurovec.Supervisor.shutdown_requested
              ~progress:(fun _ -> Neurovec.Supervisor.request_shutdown ())
          in
          (* the request lands after update 1; the loop must finish that
             update, write the checkpoint, and not start another batch *)
          Alcotest.(check int) "one update" 1 (List.length history);
          Alcotest.(check bool) "checkpoint flushed" true
            (Sys.file_exists path);
          let _, state = Rl.Checkpoint.load_full path in
          match state with
          | Some st ->
              Alcotest.(check int) "boundary state" 1
                st.Rl.Train_state.ts_update
          | None -> Alcotest.fail "expected resumable state"))

let test_signal_sets_shutdown_flag () =
  with_supervision (fun () ->
      Neurovec.Supervisor.reset_shutdown ();
      Neurovec.Supervisor.install_signal_handlers ();
      (* uninstall even on failure: a leaked install would leave the
         graceful handler active for every later suite *)
      Fun.protect
        ~finally:Neurovec.Supervisor.uninstall_signal_handlers
        (fun () ->
          Alcotest.(check bool) "clear before" false
            (Neurovec.Supervisor.shutdown_requested ());
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          (* signal delivery runs at a safepoint; give it one *)
          let deadline = Unix.gettimeofday () +. 2.0 in
          while
            (not (Neurovec.Supervisor.shutdown_requested ()))
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.005
          done;
          Alcotest.(check bool) "first SIGTERM requests graceful shutdown"
            true
            (Neurovec.Supervisor.shutdown_requested ())))

(* ------------------------------------------------------------------ *)
(* mkdir_p                                                              *)
(* ------------------------------------------------------------------ *)

let test_mkdir_p () =
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "neurovec_mkdir_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists base then rm base)
    (fun () ->
      let nested = Filename.concat (Filename.concat base "a") "b" in
      Neurovec.Supervisor.mkdir_p nested;
      Alcotest.(check bool) "nested path created" true
        (Sys.is_directory nested);
      (* idempotent *)
      Neurovec.Supervisor.mkdir_p nested;
      let file = Filename.concat base "plain" in
      let oc = open_out file in
      close_out oc;
      match Neurovec.Supervisor.mkdir_p (Filename.concat file "x") with
      | () -> Alcotest.fail "expected Sys_error on a file component"
      | exception Sys_error msg ->
          Alcotest.(check bool) "clear error message" true
            (String.length msg > String.length file))

(* ------------------------------------------------------------------ *)
(* Environment knobs under a domain race                                *)
(* ------------------------------------------------------------------ *)

(* The knob accessors pool domains call (inside [supervised],
   [with_retries], [brute_force] and nested maps), most of them with no
   earlier read on the main domain. *)
let knob_accessors : (unit -> unit) list =
  [ (fun () -> ignore (Neurovec.Supervisor.deadline ()));
    (fun () -> ignore (Neurovec.Supervisor.max_retries ()));
    (fun () -> ignore (Neurovec.Supervisor.breaker_window ()));
    (fun () -> ignore (Neurovec.Parpool.jobs ())) ]

(** Child mode of the test binary ([test_main.exe knob-race]): in a fresh
    process, where nothing has read a knob yet, release four domains at
    once on every accessor.  Exits 0 iff no read raised. *)
let knob_race_child () : unit =
  let arrived = Atomic.make 0 and failed = Atomic.make 0 in
  let racer () =
    List.iteri
      (fun i read ->
        (* a barrier per accessor; a failed read still arrives at the
           next one, so no racer waits forever *)
        Atomic.incr arrived;
        while Atomic.get arrived < 4 * (i + 1) do
          Domain.cpu_relax ()
        done;
        try read ()
        with e ->
          Atomic.incr failed;
          prerr_endline ("knob race: " ^ Printexc.to_string e))
      knob_accessors
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn racer));
  exit (if Atomic.get failed = 0 then 0 else 1)

let test_knob_reads_race_free () =
  let exe = Sys.executable_name in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      for run = 1 to 60 do
        let pid =
          Unix.create_process exe [| exe; "knob-race" |] Unix.stdin null
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.failf "fresh process %d: a racing knob read raised" run
      done)

let suite =
  [
    ( "supervisor.pool",
      [
        Alcotest.test_case "cancel skips queued items" `Quick
          test_pool_cancel_skips_queued;
      ] );
    ( "supervisor.faults",
      [
        Alcotest.test_case "stall/transient spec" `Quick
          test_faults_stall_transient_spec;
      ] );
    ( "supervisor.watchdog",
      [
        Alcotest.test_case "stalls die as Hung, jobs-invariant" `Slow
          test_watchdog_deterministic;
      ] );
    ( "supervisor.retries",
      [
        Alcotest.test_case "transient points recover exactly" `Slow
          test_transient_retry_recovers;
        Alcotest.test_case "exhaustion is deterministic" `Slow
          test_retry_exhaustion_deterministic;
      ] );
    ( "supervisor.breaker",
      [
        Alcotest.test_case "trips are jobs-invariant" `Slow
          test_breaker_trips_deterministic;
        Alcotest.test_case "inactive without faults" `Quick
          test_breaker_disabled_without_faults;
      ] );
    ( "supervisor.journal",
      [
        Alcotest.test_case "replay serves the whole sweep" `Slow
          test_journal_replay_serves_cache;
      ] );
    ( "supervisor.shutdown",
      [
        Alcotest.test_case "kill-and-resume is bit-exact" `Slow
          test_kill_and_resume_bit_exact;
        Alcotest.test_case "stop lands on an update boundary" `Quick
          test_shutdown_stops_at_update_boundary;
        Alcotest.test_case "SIGTERM sets the shutdown flag" `Quick
          test_signal_sets_shutdown_flag;
      ] );
    ( "supervisor.fs",
      [ Alcotest.test_case "mkdir_p" `Quick test_mkdir_p ] );
    ( "supervisor.knobs",
      [
        Alcotest.test_case "racing first reads never raise" `Quick
          test_knob_reads_race_free;
      ] );
  ]
