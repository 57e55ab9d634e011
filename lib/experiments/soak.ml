(** [neurovec soak] — the chaos harness for the self-healing training
    layer.

    The harness drives the {e real} binary ([Sys.executable_name]) through
    a bounded training workload under three kinds of chaos — SIGKILL /
    SIGTERM at seeded-random times, injected disk faults (ENOSPC, EIO,
    short writes) under every durable writer, and NaN-gradient poisoning
    of policy updates — and then {e proves} the recovery invariants the
    design promises, printing one ["INVARIANT <name>: OK|FAIL"] line per
    claim:

    - [rollback-exercised]: an uninterrupted reference run under
      [nan_grad] injection trips the sentinels and self-heals at least
      once, completing its full step budget.
    - [rollbacks-journaled]: every rollback of that run left an [R]
      record in the checkpoint's [.lineage] audit log.
    - [jobs-deterministic]: the same run at [--jobs 4] produces a final
      checkpoint byte-identical to [--jobs 1] — trips, rollback steps and
      the backoff schedule included.
    - [resume-bit-identical]: a run repeatedly killed (SIGKILL/SIGTERM)
      and resumed converges to the {e same final checkpoint bytes} as the
      uninterrupted reference.
    - [progress-monotonic]: the persisted step counter observed at each
      resume never regresses — rollbacks restore the newest known-good
      generation, they do not rewind the lineage head.
    - [chaos-disk-completes] / [no-torn-files]: with disk faults layered
      on top of the kills, the run still completes, and afterwards every
      surviving checkpoint generation loads whole, the reward journal
      contains only complete records, and no stale [.tmp] files survive.
    - [store-recovery]: the serve daemon's on-disk reply store, fed
      through the same injected fault layer and then torn mid-record,
      quarantines the damaged log, keeps every surviving record
      bit-exact, and compacts to a clean file.

    Kill times and signals come from a seeded {!Nn.Rng}, and every
    injected fault is a pure function of the fault-spec seed, so a
    failing soak reproduces from its [--seed] alone.  The whole run is
    bounded by [time_budget] (phases that cannot finish in budget fail
    their invariants rather than hang), sized for a CI gate. *)

type check = { c_name : string; c_ok : bool; c_note : string }

(* ---- workload shape: small enough that a full run takes seconds,
   large enough for several updates and checkpoint boundaries *)
let w_programs = 4

let w_steps = 300

let w_batch = 50

let w_every = 100

(* per-update NaN-poisoning probability for the injected runs: high
   enough that a ~6-update run almost surely trips at least once, low
   enough that recovery converges well inside the rollback budget *)
let w_nan_grad = 0.35

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* (steps, rollbacks) persisted in the checkpoint at [path], if it exists
   and carries training state *)
let ckpt_info (path : string) : (int * int) option =
  if not (Sys.file_exists path) then None
  else
    match Rl.Checkpoint.load_full path with
    | exception Rl.Checkpoint.Bad_checkpoint _ -> None
    | _, Some st ->
        Some (st.Rl.Train_state.ts_steps, st.Rl.Train_state.ts_rollbacks)
    | _, None -> None

let same_bytes a b =
  Sys.file_exists a && Sys.file_exists b && read_file a = read_file b

(* environment for a child run: the parent's, with NEUROVEC_FAULTS
   replaced by [faults] so each phase controls its own chaos *)
let env_with_faults (faults : string) : string array =
  let keep s =
    not (String.length s >= 16 && String.sub s 0 16 = "NEUROVEC_FAULTS=")
  in
  Array.of_list
    (("NEUROVEC_FAULTS=" ^ faults)
    :: List.filter keep (Array.to_list (Unix.environment ())))

let train_args ~(seed : int) ~(save : string) ~(resume : bool)
    ~(jobs : int) : string list =
  [ Sys.executable_name; "train";
    "--programs"; string_of_int w_programs;
    "--steps"; string_of_int w_steps;
    "--batch"; string_of_int w_batch;
    "--seed"; string_of_int seed;
    "--save"; save;
    "--checkpoint-every"; string_of_int w_every;
    "--keep-checkpoints"; "3";
    "--jobs"; string_of_int jobs ]
  @ (if resume then [ "--resume"; save ] else [])

(* spawn the binary with stdout+stderr appended to [log] *)
let spawn ~(env : string array) ~(args : string list) ~(log : string) : int =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.create_process_env Sys.executable_name (Array.of_list args) env
        Unix.stdin fd fd)

(* wait for [pid]; if it is still alive after [delay] seconds, deliver
   [signal] and reap it *)
let wait_or_kill (pid : int) ~(delay : float) ~(signal : int) :
    Unix.process_status =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 >= delay then begin
          (try Unix.kill pid signal with Unix.Unix_error _ -> ());
          snd (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          poll ()
        end
    | _, st -> st
  in
  poll ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)
(* ------------------------------------------------------------------ *)

(* an uninterrupted run to completion; Some (steps, rollbacks) of the
   final checkpoint on exit 0, None otherwise *)
let straight_run ~seed ~faults ~dir ~jobs : (int * int) option =
  Fsio.mkdir_p dir;
  let save = Filename.concat dir "agent.ckpt" in
  let pid =
    spawn ~env:(env_with_faults faults)
      ~args:(train_args ~seed ~save ~resume:false ~jobs)
      ~log:(Filename.concat dir "log")
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ckpt_info save
  | _ -> None

(* kill-and-resume loop: spawn, kill after a seeded-random delay (or let
   it finish), resume, until the checkpoint reports the full step budget.
   Returns the resume-time step observations and the restart count. *)
let chaos_run ~seed ~faults ~dir ~jobs ~(rng : Nn.Rng.t)
    ~(deadline : float) :
    [ `Done of int list * int | `Died of int | `Gave_up ] =
  Fsio.mkdir_p dir;
  let save = Filename.concat dir "agent.ckpt" in
  let log = Filename.concat dir "log" in
  let resumes = ref [] in
  let rec go i =
    if i >= 30 || Unix.gettimeofday () > deadline then `Gave_up
    else begin
      let resume = Sys.file_exists save in
      (if resume then
         match ckpt_info save with
         | Some (st, _) -> resumes := st :: !resumes
         | None -> ());
      let pid =
        spawn ~env:(env_with_faults faults)
          ~args:(train_args ~seed ~save ~resume ~jobs)
          ~log
      in
      let delay = 0.08 +. (0.9 *. Nn.Rng.float rng) in
      let signal =
        if Nn.Rng.float rng < 0.5 then Sys.sigkill else Sys.sigterm
      in
      match wait_or_kill pid ~delay ~signal with
      | Unix.WEXITED 0
        when (match ckpt_info save with
             | Some (st, _) -> st >= w_steps
             | None -> false) ->
          `Done (List.rev !resumes, i)
      | Unix.WEXITED 0 | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> go (i + 1)
      | Unix.WEXITED code -> `Died code
    end
  in
  go 0

(* after a disk-fault chaos run: prove nothing torn survived.  Every
   ring generation still present must load whole (quarantined [.bad]
   files are evidence, not damage), the reward journal must hold only
   complete "."-terminated records, and no stale [.tmp] may remain. *)
let torn_file_issues ~(dir : string) ~(save : string) : string list =
  let issues = ref [] in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        issues := ("stale temp file " ^ f) :: !issues)
    (Sys.readdir dir);
  for i = 0 to 2 do
    let file = Rl.Checkpoint.Lineage.ring_path save i in
    if Sys.file_exists file then
      match Rl.Checkpoint.load_full file with
      | exception Rl.Checkpoint.Bad_checkpoint why ->
          issues :=
            Printf.sprintf "%s: %s" (Filename.basename file) why :: !issues
      | _ -> ()
  done;
  let journal = save ^ ".journal" in
  (if Sys.file_exists journal then
     let whole line =
       line = ""
       || (String.length line > 0 && line.[0] = '#')
       || (String.length line >= 2
          && String.sub line (String.length line - 2) 2 = "\t.")
     in
     List.iteri
       (fun i line ->
         if not (whole line) then
           issues := Printf.sprintf "journal line %d torn" (i + 1) :: !issues)
       (String.split_on_char '\n' (read_file journal)));
  List.rev !issues

(* the serve store under the same fault layer: fill it with faults
   active, tear the tail the way a SIGKILL mid-append would, and prove
   recovery quarantines + compacts without losing a surviving byte *)
let store_issues ~(workdir : string) ~(fault_seed : int) : string list =
  let issues = ref [] in
  let path = Filename.concat workdir "store.log" in
  let spec, _ =
    Neurovec.Faults.of_string
      (Printf.sprintf "seed=%d,disk_full=0.05,disk_err=0.04,short_write=0.08"
         fault_seed)
  in
  Neurovec.Faults.install_disk spec;
  Fun.protect
    ~finally:(fun () -> Neurovec.Faults.install_disk Neurovec.Faults.none)
    (fun () ->
      let value k = Printf.sprintf "reply-%d-%s" k (String.make (k mod 7) 'x') in
      let key k = Printf.sprintf "key-%d" k in
      let s = Serve.Store.open_store path in
      for k = 0 to 199 do
        Serve.Store.put s (key k) (value k)
      done;
      Serve.Store.close s;
      let len = (Unix.stat path).Unix.st_size in
      if len > 8 then ignore (Fsio.truncate_back path (len - 5));
      (* reopen under active faults: compaction may fail closed with the
         typed error; the next attempt must recover *)
      let rec reopen tries =
        if tries >= 10 then None
        else
          match Serve.Store.open_store path with
          | s -> Some s
          | exception Fsio.Disk_fault _ -> reopen (tries + 1)
      in
      (match reopen 0 with
      | None -> issues := "reopen kept failing under injected faults" :: !issues
      | Some s2 ->
          let _, _, torn = Serve.Store.recovery s2 in
          if not torn then issues := "torn tail not detected" :: !issues;
          if not (Sys.file_exists (path ^ ".quarantined")) then
            issues := "damaged log not quarantined" :: !issues;
          let survived = ref 0 and mismatched = ref 0 in
          for k = 0 to 199 do
            match Serve.Store.get s2 (key k) with
            | Some v ->
                incr survived;
                if v <> value k then incr mismatched
            | None -> ()
          done;
          if !survived = 0 then issues := "no records survived" :: !issues;
          if !mismatched > 0 then
            issues :=
              Printf.sprintf "%d surviving records corrupt" !mismatched
              :: !issues;
          Serve.Store.close s2;
          (* the compacted log must reopen with zero damage *)
          (match reopen 0 with
          | None -> issues := "post-compaction reopen failed" :: !issues
          | Some s3 ->
              let _, rejected, torn = Serve.Store.recovery s3 in
              if rejected > 0 || torn then
                issues := "compacted log still damaged" :: !issues;
              Serve.Store.close s3));
      List.rev !issues)

(* ------------------------------------------------------------------ *)
(* The harness                                                          *)
(* ------------------------------------------------------------------ *)

(** Run the full soak; prints one INVARIANT line per claim and a PASS /
    FAIL summary, and returns whether every invariant held.  [out] keeps
    the scratch directory for autopsy (default: a fresh directory under
    the system temp dir, removed on success). *)
let run ?(out : string option) ?(time_budget = 75.0) ~(seed : int) () :
    bool =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. time_budget in
  let keep_workdir = out <> None in
  let workdir =
    match out with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "neurovec-soak-%d-%d" (Unix.getpid ()) seed)
  in
  Fsio.mkdir_p workdir;
  Printf.printf "neurovec soak: seed=%d workdir=%s budget=%.0fs\n%!" seed
    workdir time_budget;
  let checks = ref [] in
  let check name ok note =
    checks := { c_name = name; c_ok = ok; c_note = note } :: !checks;
    Printf.printf "INVARIANT %-22s %s%s\n%!" name
      (if ok then "OK" else "FAIL")
      (if note = "" then "" else "  (" ^ note ^ ")")
  in
  let rng = Nn.Rng.create ((seed * 7919) + 17) in

  (* ---- phase 1: uninterrupted reference run that provably self-heals.
     Whether a given fault seed trips inside the step budget (and
     recovers inside the rollback budget) is a fixed property of that
     seed, so scan a few derived seeds for one that does: deterministic
     in [seed], and each candidate is one short run. *)
  let nan_faults fs = Printf.sprintf "seed=%d,nan_grad=%g" fs w_nan_grad in
  let rec find_reference k =
    if k >= 8 || Unix.gettimeofday () > deadline then None
    else
      let fs = (seed * 100) + k in
      let dir = Filename.concat workdir "ref" in
      rm_rf dir;
      match
        straight_run ~seed ~faults:(nan_faults fs) ~dir ~jobs:1
      with
      | Some (st, rb) when st >= w_steps && rb >= 1 -> Some (fs, dir, rb)
      | _ -> find_reference (k + 1)
  in
  (match find_reference 0 with
  | None ->
      check "rollback-exercised" false
        "no candidate fault seed produced a completed self-healed run"
  | Some (fault_seed, ref_dir, ref_rollbacks) ->
      let ref_ckpt = Filename.concat ref_dir "agent.ckpt" in
      check "rollback-exercised" true
        (Printf.sprintf "fault seed %d, %d rollback%s" fault_seed
           ref_rollbacks
           (if ref_rollbacks = 1 then "" else "s"));
      let logged = Rl.Checkpoint.Lineage.logged_rollbacks ref_ckpt in
      check "rollbacks-journaled"
        (logged >= ref_rollbacks)
        (Printf.sprintf "%d journaled / %d persisted" logged ref_rollbacks);

      (* ---- phase 2: the same run at --jobs 4 must produce the same
         final bytes — trips, rollbacks and backoff included *)
      let dir4 = Filename.concat workdir "ref-jobs4" in
      (match
         straight_run ~seed ~faults:(nan_faults fault_seed) ~dir:dir4 ~jobs:4
       with
      | Some _ ->
          check "jobs-deterministic"
            (same_bytes ref_ckpt (Filename.concat dir4 "agent.ckpt"))
            "final checkpoint, --jobs 1 vs --jobs 4"
      | None -> check "jobs-deterministic" false "--jobs 4 run failed");

      (* ---- phase 3: SIGKILL/SIGTERM chaos; the killed-and-resumed run
         must converge to the reference's exact final bytes *)
      let kill_dir = Filename.concat workdir "chaos-kill" in
      (match
         chaos_run ~seed ~faults:(nan_faults fault_seed) ~dir:kill_dir
           ~jobs:1 ~rng ~deadline
       with
      | `Done (resumes, restarts) ->
          check "resume-bit-identical"
            (same_bytes ref_ckpt (Filename.concat kill_dir "agent.ckpt"))
            (Printf.sprintf "%d restart%s" restarts
               (if restarts = 1 then "" else "s"));
          let rec monotonic = function
            | a :: (b :: _ as rest) -> a <= b && monotonic rest
            | _ -> true
          in
          check "progress-monotonic" (monotonic resumes)
            (Printf.sprintf "resume points: %s"
               (String.concat " " (List.map string_of_int resumes)))
      | `Died code ->
          check "resume-bit-identical" false
            (Printf.sprintf "run died with exit %d" code)
      | `Gave_up ->
          check "resume-bit-identical" false
            "did not complete within restart/time budget");

      (* ---- phase 4: disk faults on top of the kills.  Fault patterns
         depend on per-process attempt indices, so bit-identity with the
         reference is out of scope here; what must hold is that the run
         completes and leaves nothing torn. *)
      let disk_dir = Filename.concat workdir "chaos-disk" in
      let disk_faults =
        Printf.sprintf "%s,disk_full=0.04,disk_err=0.03,short_write=0.05"
          (nan_faults fault_seed)
      in
      (match
         chaos_run ~seed ~faults:disk_faults ~dir:disk_dir ~jobs:1 ~rng
           ~deadline
       with
      | `Done (_, restarts) ->
          check "chaos-disk-completes" true
            (Printf.sprintf "%d restart%s" restarts
               (if restarts = 1 then "" else "s"));
          let issues =
            torn_file_issues ~dir:disk_dir
              ~save:(Filename.concat disk_dir "agent.ckpt")
          in
          check "no-torn-files" (issues = []) (String.concat "; " issues)
      | `Died code ->
          check "chaos-disk-completes" false
            (Printf.sprintf "run died with exit %d" code)
      | `Gave_up ->
          check "chaos-disk-completes" false
            "did not complete within restart/time budget"));

  (* ---- phase 5: the serve store under the same chaos (in-process) *)
  let issues = store_issues ~workdir ~fault_seed:(seed + 1) in
  check "store-recovery" (issues = []) (String.concat "; " issues);

  let all = List.rev !checks in
  let ok = List.for_all (fun c -> c.c_ok) all in
  Printf.printf "soak: %s  (%d/%d invariants, %.1fs)\n%!"
    (if ok then "PASS" else "FAIL")
    (List.length (List.filter (fun c -> c.c_ok) all))
    (List.length all)
    (Unix.gettimeofday () -. t0);
  if ok && not keep_workdir then rm_rf workdir
  else Printf.printf "scratch kept at %s\n%!" workdir;
  ok
