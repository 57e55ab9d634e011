(* Self-healing training: the durable-write fault layer (Fsio), the
   numeric-health sentinels and their deterministic backoff, the
   known-good checkpoint lineage with automatic rollback, and the
   fail-closed recovery of every durable writer (checkpoint, reward
   journal, serve store) under injected ENOSPC / EIO / short writes.

   The load-bearing claims, in test form:
   - an injected disk fault never damages the previous good state, and
     the same logical write succeeds on retry;
   - a NaN gradient trips the sentinel, rolls back to the newest
     known-good checkpoint, and the whole recovery — trip update,
     restored bytes, backoff schedule — is bit-identical at --jobs 1
     and --jobs 4;
   - torn tails are dropped, never replayed, and stale .tmp files are
     swept, never resurrected. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* scoped Fsio injector: always uninstalled afterwards, so no fault
   leaks into later suites *)
let with_injector (inj : Fsio.injector) (f : unit -> 'a) : 'a =
  Fsio.set_injector (Some inj);
  Fun.protect ~finally:(fun () -> Fsio.set_injector None) f

let temp_dir_seq = ref 0

let with_temp_dir (f : string -> 'a) : 'a =
  incr temp_dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "neurovec_selfheal_%d_%d" (Unix.getpid ())
         !temp_dir_seq)
  in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
        try Sys.rmdir p with Sys_error _ -> ()
      end
      else try Sys.remove p with Sys_error _ -> ()
  in
  rm_rf dir;
  Fsio.mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let small_agent seed =
  Rl.Agent.create ~hidden:[ 8 ]
    ~c2v_cfg:Embedding.Code2vec.default_config ~space:Rl.Spaces.Discrete
    (Nn.Rng.create seed)

let state ~steps ~update ?(rollbacks = 0) () =
  { Rl.Train_state.ts_steps = steps; ts_update = update; ts_history = [];
    ts_optim = Nn.Optim.adam ~lr:1e-3 (); ts_rollbacks = rollbacks }

(* ------------------------------------------------------------------ *)
(* Fsio: the guarded primitives                                         *)
(* ------------------------------------------------------------------ *)

let test_atomic_replace_fails_closed () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "data" in
      write_file path "generation-1";
      (* every kind of injected fault must leave the previous bytes and
         no temp litter; the next attempt (fresh index) must succeed *)
      List.iter
        (fun kind ->
          with_injector
            (fun ~op:_ ~path:_ ~index -> if index = 0 then Some kind else None)
            (fun () ->
              (match Fsio.atomic_replace ~op:"test" path "generation-2" with
              | () -> Alcotest.fail "expected Disk_fault"
              | exception Fsio.Disk_fault { kind = k; _ } ->
                  Alcotest.(check string)
                    "typed fault names the kind"
                    (Fsio.fault_kind_name kind)
                    (Fsio.fault_kind_name k));
              Alcotest.(check string) "previous bytes intact" "generation-1"
                (read_file path);
              Alcotest.(check bool) "no temp litter" false
                (Sys.file_exists (path ^ ".tmp"));
              Fsio.atomic_replace ~op:"test" path "generation-2";
              Alcotest.(check string) "retry lands" "generation-2"
                (read_file path);
              write_file path "generation-1"))
        [ Fsio.Disk_full; Fsio.Disk_err; Fsio.Short_write ])

let test_short_write_tears_then_truncate_recovers () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      write_file path "complete-record\n";
      let before = (Unix.stat path).Unix.st_size in
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
      in
      with_injector
        (fun ~op:_ ~path:_ ~index:_ -> Some Fsio.Short_write)
        (fun () ->
          match Fsio.output ~op:"test" ~path oc "torn-record-here\n" with
          | () -> Alcotest.fail "expected Disk_fault"
          | exception Fsio.Disk_fault _ -> ());
      close_out_noerr oc;
      (* the tear is real: a strict prefix landed *)
      Alcotest.(check bool) "prefix landed" true
        ((Unix.stat path).Unix.st_size > before);
      (* and the writer-side undo removes exactly the torn bytes *)
      Alcotest.(check bool) "truncate_back succeeds" true
        (Fsio.truncate_back path before);
      Alcotest.(check string) "only whole records remain" "complete-record\n"
        (read_file path))

let test_sweep_tmp_counts () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "agent.ckpt" in
      write_file (path ^ ".tmp") "dead bytes";
      let n0 = Counter.get Fsio.tmp_swept in
      Alcotest.(check bool) "swept" true (Fsio.sweep_tmp path);
      Alcotest.(check bool) "gone" false (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check int) "counted" (n0 + 1) (Counter.get Fsio.tmp_swept);
      Alcotest.(check bool) "idempotent" false (Fsio.sweep_tmp path))

(* ------------------------------------------------------------------ *)
(* Sentinel checks and backoff                                          *)
(* ------------------------------------------------------------------ *)

let test_sentinel_checks () =
  let agent = small_agent 1 in
  let params = Rl.Agent.params agent in
  let optim = Nn.Optim.adam ~lr:1e-3 () in
  let check ?(cfg = Rl.Sentinel.default) ?(loss = 0.1) ?(entropy = 1.0)
      ?(reward_mean = 0.2) ?(approx_kl = 0.01) () =
    Rl.Sentinel.check cfg ~params ~optim ~loss ~entropy ~reward_mean
      ~approx_kl
  in
  let describe = function
    | Some t -> Rl.Sentinel.describe t
    | None -> "healthy"
  in
  Alcotest.(check string) "healthy state passes" "healthy" (describe (check ()));
  Alcotest.(check string) "NaN loss trips" "non-finite loss"
    (describe (check ~loss:Float.nan ()));
  Alcotest.(check string) "infinite KL trips" "non-finite approx-KL"
    (describe (check ~approx_kl:Float.infinity ()));
  (* a single NaN weight trips the always-on parameter scan *)
  (match params with
  | (p, _) :: _ ->
      let saved = p.(0) in
      p.(0) <- Float.nan;
      Alcotest.(check string) "NaN weight trips"
        "non-finite weights or gradients"
        (describe (check ()));
      p.(0) <- saved
  | [] -> Alcotest.fail "agent has no parameters");
  (* thresholds are opt-in: disabled at 0, enforced when set *)
  Alcotest.(check string) "entropy floor off by default" "healthy"
    (describe (check ~entropy:1e-9 ()));
  let cfg = { Rl.Sentinel.default with ent_floor = 0.1; kl_max = 0.5; drift_max = 50.0 } in
  Alcotest.(check string) "entropy collapse trips" "entropy collapse (1e-09)"
    (describe (check ~cfg ~entropy:1e-9 ()));
  Alcotest.(check string) "KL blow-up trips" "approx-KL blow-up (2)"
    (describe (check ~cfg ~approx_kl:2.0 ()));
  Alcotest.(check string) "reward drift trips" "reward-scale drift (-900)"
    (describe (check ~cfg ~reward_mean:(-900.0) ()))

let test_backoff_deterministic_and_bounded () =
  let b0 = Rl.Sentinel.backoff ~seed:5 ~rollbacks:0 in
  Alcotest.(check (float 0.0)) "no rollback: unit lr scale" 1.0
    b0.Rl.Sentinel.lr_scale;
  Alcotest.(check (float 0.0)) "no rollback: unit clip scale" 1.0
    b0.Rl.Sentinel.clip_scale;
  for r = 1 to 6 do
    let b = Rl.Sentinel.backoff ~seed:5 ~rollbacks:r in
    let b' = Rl.Sentinel.backoff ~seed:5 ~rollbacks:r in
    Alcotest.(check bool) "pure in (seed, rollbacks)" true (b = b');
    let lo = (0.5 ** float_of_int r) *. 0.75 in
    let hi = (0.5 ** float_of_int r) *. 1.25 in
    Alcotest.(check bool) "lr halves (with a seeded nudge)" true
      (b.Rl.Sentinel.lr_scale >= lo && b.Rl.Sentinel.lr_scale <= hi);
    Alcotest.(check bool) "clip tightens to a floor" true
      (b.Rl.Sentinel.clip_scale >= 0.25
      && b.Rl.Sentinel.clip_scale <= 0.8 ** 1.0)
  done

(* ------------------------------------------------------------------ *)
(* Checkpoint lineage                                                   *)
(* ------------------------------------------------------------------ *)

let test_lineage_ring_and_rollback_walk () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "agent.ckpt" in
      let agent = small_agent 2 in
      Rl.Checkpoint.Lineage.save ~keep:2 ~state:(state ~steps:1 ~update:1 ())
        agent path;
      Rl.Checkpoint.Lineage.save ~keep:2 ~state:(state ~steps:2 ~update:2 ())
        agent path;
      Rl.Checkpoint.Lineage.save ~keep:2 ~state:(state ~steps:3 ~update:3 ())
        agent path;
      Alcotest.(check bool) "head exists" true (Sys.file_exists path);
      Alcotest.(check bool) "one retired generation" true
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool) "ring depth respected" false
        (Sys.file_exists (path ^ ".2"));
      (match Rl.Checkpoint.Lineage.newest_good ~keep:2 path with
      | Some (file, _, Some st) ->
          Alcotest.(check string) "newest good is the head" path file;
          Alcotest.(check int) "head generation" 3 st.Rl.Train_state.ts_steps
      | _ -> Alcotest.fail "expected a good head");
      (* corrupt the head: the walk must quarantine it and fall back to
         the previous generation *)
      write_file path "junk that is not a checkpoint";
      (match Rl.Checkpoint.Lineage.newest_good ~keep:2 path with
      | Some (file, _, Some st) ->
          Alcotest.(check string) "fell back one generation" (path ^ ".1")
            file;
          Alcotest.(check int) "previous generation" 2
            st.Rl.Train_state.ts_steps
      | _ -> Alcotest.fail "expected the retired generation");
      Alcotest.(check bool) "sick head quarantined as .bad" true
        (Sys.file_exists (path ^ ".bad"));
      Alcotest.(check bool) "lineage audit log written" true
        (Sys.file_exists (path ^ ".lineage")))

let test_post_save_health_check_quarantines () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "agent.ckpt" in
      let agent = small_agent 3 in
      Rl.Checkpoint.Lineage.save ~state:(state ~steps:1 ~update:1 ()) agent
        path;
      let good = read_file path in
      (* poison a weight: the save lands but the post-save health check
         must refuse to admit it as the new head *)
      (match Rl.Agent.params agent with
      | (p, _) :: _ -> p.(0) <- Float.nan
      | [] -> Alcotest.fail "agent has no parameters");
      (match
         Rl.Checkpoint.Lineage.save ~state:(state ~steps:2 ~update:2 ())
           agent path
       with
      | () -> Alcotest.fail "expected Bad_checkpoint"
      | exception Rl.Checkpoint.Bad_checkpoint _ -> ());
      Alcotest.(check bool) "sick head quarantined" true
        (Sys.file_exists (path ^ ".bad"));
      (* the previous generation survived the failed save, bit for bit *)
      (match Rl.Checkpoint.Lineage.newest_good path with
      | Some (file, _, _) ->
          Alcotest.(check string) "known good bytes intact" good
            (read_file file)
      | None -> Alcotest.fail "lost the known-good generation"))

let test_checkpoint_v2_still_loads () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "v2.ckpt" in
      let agent = small_agent 4 in
      (* compose a v2 file exactly as the previous release wrote it:
         same framing, pre-[ts_rollbacks] state record *)
      let body =
        Marshal.to_string
          { Rl.Checkpoint.v2_agent = agent;
            v2_state =
              Some
                { Rl.Checkpoint.v2_steps = 7; v2_update = 2; v2_history = [];
                  v2_optim = Nn.Optim.adam ~lr:1e-3 () } }
          []
      in
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 2);
      output_value oc body;
      output_value oc (Rl.Checkpoint.crc32 body);
      close_out oc;
      match Rl.Checkpoint.load_full path with
      | _, Some st ->
          Alcotest.(check int) "steps preserved" 7 st.Rl.Train_state.ts_steps;
          Alcotest.(check int) "rollbacks default to zero" 0
            st.Rl.Train_state.ts_rollbacks
      | _, None -> Alcotest.fail "v2 state lost")

(* ------------------------------------------------------------------ *)
(* ENOSPC under the training loop and the journal                       *)
(* ------------------------------------------------------------------ *)

let selfheal_hyper = { Rl.Ppo.default_hyper with batch_size = 48 }

let train_once ?sentinel ?injector ~dir ~seed () : string =
  let path = Filename.concat dir "agent.ckpt" in
  Neurovec.Frontend.clear ();
  let corpus = Dataset.Loopgen.generate ~seed:88 6 in
  let fw = Neurovec.Framework.create ~seed corpus in
  let body () =
    ignore
      (Neurovec.Framework.train fw ~hyper:selfheal_hyper ~total_steps:240
         ~checkpoint_path:path ~checkpoint_every:96 ?sentinel)
  in
  (match injector with
  | Some inj -> with_injector inj body
  | None -> body ());
  path

let test_enospc_mid_checkpoint_keeps_last_good () =
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let ref_path = train_once ~dir:ref_dir ~seed:3 () in
          Neurovec.Stats.reset ();
          (* the first checkpoint write attempt hits ENOSPC; training
             must absorb it (previous state intact) and the retry at the
             next boundary must land, converging on the exact bytes of
             the fault-free run *)
          let path =
            train_once
              ~injector:(fun ~op ~path:_ ~index ->
                if op = "checkpoint" && index = 0 then Some Fsio.Disk_full
                else None)
              ~dir ~seed:3 ()
          in
          Alcotest.(check bool) "fault injected" true
            (Counter.get Fsio.injected >= 1);
          Alcotest.(check bool) "write error absorbed" true
            (Counter.get Fsio.write_errors >= 1);
          Alcotest.(check bool) "final checkpoint loads" true
            (Rl.Checkpoint.Lineage.newest_good path <> None);
          Alcotest.(check bool)
            "bytes identical to the fault-free run" true
            (read_file ref_path = read_file path)))

let journal_lines_whole path =
  List.for_all
    (fun line ->
      line = ""
      || (String.length line > 0 && line.[0] = '#')
      || (String.length line >= 2
         && String.sub line (String.length line - 2) 2 = "\t."))
    (String.split_on_char '\n' (read_file path))

let test_enospc_mid_journal_drops_only_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "rewards.journal" in
      let programs = Dataset.Loopgen.generate ~seed:106 5 in
      Neurovec.Frontend.clear ();
      let oracle = Neurovec.Reward.create programs in
      Neurovec.Reward.set_journal oracle path;
      (* appends 1 and 4 die of ENOSPC, append 2 tears mid-record: the
         journal must contain only whole lines afterwards *)
      let first =
        with_injector
          (fun ~op ~path:_ ~index ->
            if op <> "journal" then None
            else if index = 1 || index = 4 then Some Fsio.Disk_full
            else if index = 2 then Some Fsio.Short_write
            else None)
          (fun () -> Neurovec.Reward.sweep_all oracle)
      in
      Neurovec.Reward.close_journal oracle;
      Alcotest.(check bool) "every surviving line is whole" true
        (journal_lines_whole path);
      (* replay serves what survived; re-measurement fills the holes and
         the sweep is bit-identical *)
      Neurovec.Frontend.clear ();
      let restored = Neurovec.Reward.create programs in
      let replayed = Neurovec.Reward.replay_journal restored path in
      Alcotest.(check bool) "some records replayed" true (replayed > 0);
      Test_parallel.check_sweeps_equal
        (first, Neurovec.Reward.quarantine_report oracle)
        ( Neurovec.Reward.sweep_all restored,
          Neurovec.Reward.quarantine_report restored );
      (* a SIGKILL-torn tail (no trailing newline) is trimmed when the
         journal is reattached, never glued onto the next append *)
      let whole = read_file path in
      write_file path (whole ^ "E\ttorn-key\t3f");
      let again = Neurovec.Reward.create programs in
      Neurovec.Reward.set_journal again path;
      Neurovec.Reward.close_journal again;
      Alcotest.(check string) "torn tail trimmed on reattach" whole
        (read_file path))

(* ------------------------------------------------------------------ *)
(* Store: compaction fails closed, recovery on retry                    *)
(* ------------------------------------------------------------------ *)

let test_store_compaction_fails_closed () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "store.log" in
      let s = Serve.Store.open_store path in
      for k = 0 to 9 do
        Serve.Store.put s (Printf.sprintf "k%d" k) (Printf.sprintf "v%d" k)
      done;
      Serve.Store.close s;
      (* tear the tail, then make the compaction rewrite itself fail:
         open_store must fail closed with the typed error, leaving the
         damaged-but-loadable log in place for the retry *)
      let len = (Unix.stat path).Unix.st_size in
      ignore (Fsio.truncate_back path (len - 3));
      with_injector
        (fun ~op ~path:_ ~index:_ ->
          if op = "store" then Some Fsio.Disk_err else None)
        (fun () ->
          match Serve.Store.open_store path with
          | _ -> Alcotest.fail "expected Disk_fault"
          | exception Fsio.Disk_fault _ -> ());
      Alcotest.(check bool) "damaged log still present" true
        (Sys.file_exists path);
      (* the retry (fault cleared) quarantines and compacts *)
      let s2 = Serve.Store.open_store path in
      let loaded, rejected, torn = Serve.Store.recovery s2 in
      Alcotest.(check bool) "torn tail detected" true torn;
      Alcotest.(check int) "nothing CRC-rejected" 0 rejected;
      Alcotest.(check int) "all whole records kept" 9 loaded;
      Alcotest.(check bool) "evidence quarantined" true
        (Sys.file_exists (path ^ ".quarantined"));
      Serve.Store.close s2;
      let s3 = Serve.Store.open_store path in
      let _, rejected, torn = Serve.Store.recovery s3 in
      Alcotest.(check bool) "compacted log is clean" false torn;
      Alcotest.(check int) "compacted log has no rejects" 0 rejected;
      Serve.Store.close s3)

(* ------------------------------------------------------------------ *)
(* Sentinel rollback: deterministic across pool sizes                   *)
(* ------------------------------------------------------------------ *)

let lineage_events path =
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l ->
           String.length l > 2 && (l.[0] = 'R' || l.[0] = 'G'))

let test_nan_rollback_identical_at_any_jobs () =
  let j0 = Neurovec.Parpool.jobs () in
  Fun.protect
    ~finally:(fun () -> Neurovec.Parpool.set_jobs j0)
    (fun () ->
      (* poison update 3's gradient on its first attempt only: the trip,
         the rollback to the update-2 checkpoint, and the backed-off
         replay must be identical at any pool size *)
      let sentinel =
        { Rl.Sentinel.default with
          backoff_seed = 5;
          inject_nan =
            (fun ~update ~rollbacks -> update = 3 && rollbacks = 0) }
      in
      let run jobs dir =
        Neurovec.Parpool.set_jobs jobs;
        Counter.reset_all ();
        let path = train_once ~sentinel ~dir ~seed:3 () in
        Alcotest.(check int) "one trip" 1 (Counter.get Rl.Sentinel.trips);
        Alcotest.(check int) "one rollback" 1 (Counter.get Rl.Sentinel.rollbacks);
        Alcotest.(check bool) "sick state dumped for autopsy" true
          (Sys.file_exists (path ^ ".bad"));
        Alcotest.(check int) "rollback journaled" 1
          (Rl.Checkpoint.Lineage.logged_rollbacks path);
        let _, st = Rl.Checkpoint.load_full path in
        let st = Option.get st in
        Alcotest.(check int) "rollback count persisted" 1
          st.Rl.Train_state.ts_rollbacks;
        (* the backoff schedule is recoverable from the persisted state:
           final lr = base lr x lr_scale(seed, 1), exactly *)
        Alcotest.(check bool) "backed-off learning rate" true
          (Int64.bits_of_float (Nn.Optim.lr st.Rl.Train_state.ts_optim)
          = Int64.bits_of_float
              (selfheal_hyper.Rl.Ppo.lr
              *. (Rl.Sentinel.backoff ~seed:5 ~rollbacks:1)
                   .Rl.Sentinel.lr_scale));
        (read_file path, lineage_events (path ^ ".lineage"))
      in
      with_temp_dir (fun dir1 ->
          with_temp_dir (fun dir4 ->
              let bytes1, events1 = run 1 dir1 in
              let bytes4, events4 = run 4 dir4 in
              Alcotest.(check bool)
                "final checkpoint bytes: jobs 1 = jobs 4" true
                (bytes1 = bytes4);
              Alcotest.(check (list string))
                "rollback/restore events: jobs 1 = jobs 4" events1 events4)))

let test_memory_rollback_without_checkpoint_path () =
  (* no checkpoint path: recovery restores the in-memory snapshot of the
     last healthy update and still converges *)
  Neurovec.Frontend.clear ();
  Counter.reset_all ();
  let corpus = Dataset.Loopgen.generate ~seed:88 6 in
  let fw = Neurovec.Framework.create ~seed:3 corpus in
  let sentinel =
    { Rl.Sentinel.default with
      inject_nan = (fun ~update ~rollbacks -> update = 2 && rollbacks = 0) }
  in
  let history =
    Neurovec.Framework.train fw ~hyper:selfheal_hyper ~total_steps:144
      ~sentinel
  in
  Alcotest.(check int) "one rollback" 1 (Counter.get Rl.Sentinel.rollbacks);
  Alcotest.(check int) "full update history despite the trip" 3
    (List.length history);
  Alcotest.(check bool) "agent finite after recovery" true
    (Rl.Sentinel.params_finite (Rl.Agent.params fw.Neurovec.Framework.agent))

let test_unrecoverable_after_budget () =
  Neurovec.Frontend.clear ();
  let corpus = Dataset.Loopgen.generate ~seed:88 4 in
  let fw = Neurovec.Framework.create ~seed:3 corpus in
  (* poison every attempt of update 1: the run can never make progress
     and must surface the typed give-up instead of looping forever *)
  let sentinel =
    { Rl.Sentinel.default with
      max_rollbacks = 3;
      inject_nan = (fun ~update ~rollbacks:_ -> update = 1) }
  in
  match
    Neurovec.Framework.train fw ~hyper:selfheal_hyper ~total_steps:96
      ~sentinel
  with
  | _ -> Alcotest.fail "expected Unrecoverable"
  | exception Rl.Sentinel.Unrecoverable msg ->
      Alcotest.(check bool) "message names the trip" true
        (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Stale temp files: swept on startup, never replayed                   *)
(* ------------------------------------------------------------------ *)

let test_stale_tmp_swept_on_startup () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "agent.ckpt" in
      write_file (path ^ ".tmp") "interrupted atomic write";
      write_file (path ^ ".1.tmp") "older interrupted write";
      Neurovec.Stats.reset ();
      let _ = train_once ~dir ~seed:3 () in
      Alcotest.(check bool) "head tmp swept" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check bool) "ring tmp swept" false
        (Sys.file_exists (path ^ ".1.tmp"));
      Alcotest.(check bool) "sweep counted in stats" true
        (Counter.get Fsio.tmp_swept >= 2);
      (* the dead bytes were never replayed: the checkpoint is valid *)
      match Rl.Checkpoint.load_full path with
      | _, Some st ->
          Alcotest.(check int) "trained to completion" 240
            st.Rl.Train_state.ts_steps
      | _ -> Alcotest.fail "expected a resumable checkpoint")

let suite =
  [
    ( "selfheal",
      [
        Alcotest.test_case "atomic replace fails closed under every fault"
          `Quick test_atomic_replace_fails_closed;
        Alcotest.test_case "short write tears; truncate-back recovers" `Quick
          test_short_write_tears_then_truncate_recovers;
        Alcotest.test_case "stale tmp sweep counts and is idempotent" `Quick
          test_sweep_tmp_counts;
        Alcotest.test_case "sentinel catches NaN and opt-in thresholds"
          `Quick test_sentinel_checks;
        Alcotest.test_case "backoff is pure, halving and floored" `Quick
          test_backoff_deterministic_and_bounded;
        Alcotest.test_case "lineage ring rotates; rollback walk quarantines"
          `Quick test_lineage_ring_and_rollback_walk;
        Alcotest.test_case "post-save health check refuses a sick head"
          `Quick test_post_save_health_check_quarantines;
        Alcotest.test_case "v2 checkpoints still load" `Quick
          test_checkpoint_v2_still_loads;
        Alcotest.test_case "ENOSPC mid-checkpoint keeps the last good"
          `Slow test_enospc_mid_checkpoint_keeps_last_good;
        Alcotest.test_case "ENOSPC mid-journal drops only the torn tail"
          `Quick test_enospc_mid_journal_drops_only_torn_tail;
        Alcotest.test_case "store compaction fails closed, recovers on retry"
          `Quick test_store_compaction_fails_closed;
        Alcotest.test_case "NaN rollback identical at jobs 1 and jobs 4"
          `Slow test_nan_rollback_identical_at_any_jobs;
        Alcotest.test_case "memory rollback without a checkpoint path"
          `Slow test_memory_rollback_without_checkpoint_path;
        Alcotest.test_case "unrecoverable after the rollback budget" `Slow
          test_unrecoverable_after_budget;
        Alcotest.test_case "stale tmp files swept on startup, never replayed"
          `Slow test_stale_tmp_swept_on_startup;
      ] );
  ]
