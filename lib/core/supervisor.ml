(** Supervision for the evaluation/training stack: watchdogs, deterministic
    retries, circuit-breaker configuration and graceful shutdown.

    The reward oracle turns thousands of compile-and-measure episodes into
    training signal; on a real testbed some of those episodes hang, some
    fail transiently, and long unattended runs get SIGTERMed.  This module
    is the layer that keeps one bad episode from taking the run down:

    - {b Watchdog.}  {!supervised} registers an evaluation with a monitor
      thread that flags any task still running past the {!deadline}.  The
      flag is {e cooperative}: it is only observed at {!stall_point}, the
      wait that {!Pipeline} enters when the fault spec injects a stall —
      so a slow-but-honest evaluation is never killed mid-measurement
      (which would make results depend on machine load), while a stalled
      one always dies with {!Hung} after roughly one deadline.  Outcomes
      are therefore a pure function of the fault spec: stalled points hang
      and get cancelled, everything else completes normally, at any pool
      size.

    - {b Retries.}  {!with_retries} re-runs an evaluation whose attempt
      raised {!Faults.Transient}, up to {!max_retries} times with a short
      exponential backoff.  Transient faults are keyed by
      [hash(seed, key, attempt)] (see {!Faults.transient_hit}), so whether
      attempt [k] fails is deterministic and the final outcome — success
      on some attempt, or exhaustion — is bit-identical between [--jobs 1]
      and [--jobs N].  Persistent faults are not retried: they re-raise
      immediately and trip straight to the penalty path.

    - {b Circuit breaker.}  {!breaker_window} configures how many actions
      {!Reward.brute_force} probes before writing off a program whose
      every probe failed (quarantine with a structured report) instead of
      re-evaluating a poisoned program 35 times per sweep.  The window is
      a fixed prefix in fixed action order, so trips are deterministic
      across schedules.

    - {b Graceful shutdown.}  {!install_signal_handlers} converts the
      first SIGINT/SIGTERM into a {!shutdown_requested} flag that
      [Ppo.train]'s [?stop] hook polls at update boundaries: in-flight
      work finishes, an atomic checkpoint and the write-ahead reward
      journal are flushed, and the run resumes bit-exactly via
      [--resume].  A second SIGINT exits immediately.

    Configuration: [--deadline] / [NEUROVEC_DEADLINE] (seconds),
    [--max-retries] / [NEUROVEC_MAX_RETRIES], [NEUROVEC_BREAKER]
    (actions; 0 disables the breaker). *)

exception Hung of string

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

let env_float (name : string) : float option =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> Some f
      | _ ->
          Printf.eprintf
            "neurovec: unparseable %s=%S, using the default\n%!" name s;
          None)

let env_int (name : string) : int option =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Some n
      | _ ->
          Printf.eprintf
            "neurovec: unparseable %s=%S, using the default\n%!" name s;
          None)

(* Environment knobs are read once, at module initialization: the
   accessors below run inside pool domains, and a [lazy] forced by two
   domains at once raises [CamlinternalLazy.Undefined]. *)

let deadline_ref : float option ref = ref None
let env_deadline = env_float "NEUROVEC_DEADLINE"

(** Per-task wall-clock budget in seconds before the watchdog cancels a
    stalled evaluation.  Always finite, so a run under stall faults is
    always bounded. *)
let deadline () : float =
  match !deadline_ref with
  | Some d -> d
  | None -> Option.value env_deadline ~default:2.0

let set_deadline (d : float) : unit = deadline_ref := Some (max 1e-3 d)

let retries_ref : int option ref = ref None
let env_retries = env_int "NEUROVEC_MAX_RETRIES"

(** Retries granted to an evaluation whose attempt failed transiently
    (so a point is tried at most [1 + max_retries ()] times). *)
let max_retries () : int =
  match !retries_ref with
  | Some n -> n
  | None -> Option.value env_retries ~default:3

let set_max_retries (n : int) : unit = retries_ref := Some (max 0 n)

let breaker_ref : int option ref = ref None
let env_breaker = env_int "NEUROVEC_BREAKER"

(** Actions {!Reward.brute_force} probes before tripping the per-program
    circuit breaker when all of them failed; 0 disables the breaker. *)
let breaker_window () : int =
  match !breaker_ref with
  | Some n -> n
  | None -> Option.value env_breaker ~default:5

let set_breaker_window (n : int) : unit = breaker_ref := Some (max 0 n)

(* base of the exponential retry backoff; kept tiny (the faults are
   simulated) and overridable so tests can zero it *)
let backoff_ref : float ref = ref 0.002

let set_retry_backoff (s : float) : unit = backoff_ref := max 0.0 s

(* ------------------------------------------------------------------ *)
(* Watchdog                                                             *)
(* ------------------------------------------------------------------ *)

type task = {
  t_name : string;
  t_start : float;
  t_cancel : bool Atomic.t;
}

let registry_lock = Mutex.create ()
let registry : (int, task) Hashtbl.t = Hashtbl.create 32
let next_id = Atomic.make 0

(* The monitor runs as a thread of the main domain: systhreads preempt
   within a domain (so it ticks even while a jobs=1 sweep computes) and
   run concurrently with Parpool's worker domains.  It only ever reads
   the registry and flips cancel flags — all counters are recorded by the
   cancelled task itself, in its own domain, so Stats stay race-free. *)
let monitor_started = ref false

let scan () =
  let now = Unix.gettimeofday () in
  let d = deadline () in
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ t ->
          if now -. t.t_start > d then Atomic.set t.t_cancel true)
        registry)

let ensure_monitor () =
  (* never create the thread inside a pool worker: the monitor loops for
     the life of the process, and a worker domain cannot join while one
     of its threads is still running.  Workers fall back on the
     self-observed deadline in [stall_point]; the thread gets created by
     the next main-domain evaluation. *)
  if not (Parpool.in_pool_worker ()) then
    Mutex.protect registry_lock (fun () ->
        if not !monitor_started then begin
          monitor_started := true;
          ignore
            (Thread.create
               (fun () ->
                 while true do
                   Thread.delay (max 0.002 (deadline () /. 4.0));
                   scan ()
                 done)
               ())
        end)

let register (name : string) : int * task =
  let t =
    { t_name = name; t_start = Unix.gettimeofday ();
      t_cancel = Atomic.make false }
  in
  let id = Atomic.fetch_and_add next_id 1 in
  Mutex.protect registry_lock (fun () -> Hashtbl.replace registry id t);
  (id, t)

let unregister (id : int) : unit =
  Mutex.protect registry_lock (fun () -> Hashtbl.remove registry id)

(* the evaluation this domain is currently running under [supervised] *)
let current_task : task option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** Run one evaluation under the watchdog: while [f] runs, the monitor
    thread will flag the task if it outlives the {!deadline}.  The flag
    only takes effect at {!stall_point} — supervision never preempts
    honest work, so results stay schedule-independent. *)
let supervised ~(name : string) (f : unit -> 'a) : 'a =
  ensure_monitor ();
  let id, t = register name in
  let saved = Domain.DLS.get current_task in
  Domain.DLS.set current_task (Some t);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current_task saved;
      unregister id)
    f

(** The cooperative cancellation point entered when the fault spec stalls
    an evaluation ({!Faults.stall_hit}): wait until the watchdog cancels
    the enclosing task (registering a fresh one when called outside
    {!supervised}), then raise {!Hung}.  The wait also self-observes the
    deadline against the task's own start time, so a stall inside a pool
    worker — where the monitor thread cannot live — resolves after the
    same deadline; the outcome, {!Hung}, is identical either way. *)
let stall_point ~(name : string) : 'a =
  ensure_monitor ();
  let id, t =
    match Domain.DLS.get current_task with
    | Some t -> (-1, t)
    | None -> register name
  in
  let rec wait () =
    if Atomic.get t.t_cancel then ()
    else if Unix.gettimeofday () -. t.t_start > deadline () then ()
    else begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ();
  if id >= 0 then unregister id;
  Stats.record_watchdog_cancel ();
  raise
    (Hung
       (Printf.sprintf
          "%s: injected fault: stalled evaluation cancelled by the \
           watchdog after the %.3gs deadline"
          name (deadline ())))

(* ------------------------------------------------------------------ *)
(* Deterministic retries                                                *)
(* ------------------------------------------------------------------ *)

(** Run [f ~attempt:0]; while it raises {!Faults.Transient} and the retry
    budget allows, back off briefly and re-run with the next attempt
    index.  Because transient faults are pure in (seed, key, attempt),
    the attempt at which a point succeeds — or the decision to give up —
    is deterministic; the backoff only spends wall time, never changes
    results.  Once the budget is exhausted the last {!Faults.Transient}
    is re-raised for the caller to classify as a persistent failure. *)
let with_retries (f : attempt:int -> 'a) : 'a =
  let budget = max_retries () in
  let rec go attempt =
    try f ~attempt
    with Faults.Transient msg ->
      if attempt >= budget then
        raise
          (Faults.Transient
             (Printf.sprintf "%s (%d attempt%s exhausted)" msg (attempt + 1)
                (if attempt = 0 then "" else "s")))
      else begin
        Stats.record_transient_retry ();
        let pause = !backoff_ref *. (2.0 ** float_of_int attempt) in
        if pause > 0.0 then Thread.delay (min pause 0.05);
        go (attempt + 1)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                    *)
(* ------------------------------------------------------------------ *)

let shutdown : bool Atomic.t = Atomic.make false

let request_shutdown () : unit = Atomic.set shutdown true

(** Polled by [Ppo.train]'s [?stop] hook at update boundaries. *)
let shutdown_requested () : bool = Atomic.get shutdown

(** For tests: forget a previous shutdown request. *)
let reset_shutdown () : unit = Atomic.set shutdown false

(* Installing handlers must compose: a serve daemon installs them for its
   drain, a train run launched under it installs them again, and repeated
   serve sessions in one process (the tests) install and tear down
   several times.  A naive [Sys.set_signal] clobbers whatever handler the
   host had and can never give it back, so installation is refcounted —
   the first install displaces the previous behaviours and remembers
   them, later installs only deepen the count — and the graceful handler
   {e chains} to the displaced handler, so supervision adds shutdown
   semantics on top of the host's instead of replacing them. *)

let install_lock = Mutex.create ()
let install_depth = ref 0

(* behaviours displaced by the first install, restored by the last
   uninstall; (sigint, sigterm) *)
let displaced : (Sys.signal_behavior * Sys.signal_behavior) option ref =
  ref None

let chain (signal : int) : unit =
  match !displaced with
  | None -> ()
  | Some (for_int, for_term) -> (
      match if signal = Sys.sigint then for_int else for_term with
      | Sys.Signal_handle f -> ( try f signal with _ -> ())
      | Sys.Signal_default | Sys.Signal_ignore -> ())

let graceful (signal : int) : unit =
  if Atomic.get shutdown then exit 130
  else begin
    Atomic.set shutdown true;
    prerr_endline
      "neurovec: shutdown requested; finishing the in-flight work \
       (interrupt again to exit now)";
    chain signal
  end

(** Install SIGINT/SIGTERM handlers for a long-running session (training,
    serving): the first signal requests a graceful shutdown — finish the
    in-flight work, flush checkpoints/journals/stores, exit cleanly — and
    a second signal exits immediately with the conventional 130.
    Installation is refcounted and composes: a second install (a train
    run under a serve daemon, repeated serve sessions) deepens the count
    instead of clobbering, the handler chains to whatever handler it
    displaced, and {!uninstall_signal_handlers} restores the displaced
    behaviour once the count drains to zero. *)
let install_signal_handlers () : unit =
  Mutex.protect install_lock (fun () ->
      incr install_depth;
      if !install_depth = 1 then
        try
          let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle graceful) in
          let prev_term =
            Sys.signal Sys.sigterm (Sys.Signal_handle graceful)
          in
          displaced := Some (prev_int, prev_term)
        with Invalid_argument _ | Sys_error _ -> displaced := None)

(** Undo one {!install_signal_handlers}; the displaced SIGINT/SIGTERM
    behaviours are restored when the last install is undone.  Extra calls
    are ignored. *)
let uninstall_signal_handlers () : unit =
  Mutex.protect install_lock (fun () ->
      if !install_depth > 0 then begin
        decr install_depth;
        if !install_depth = 0 then begin
          (match !displaced with
          | None -> ()
          | Some (for_int, for_term) -> (
              try
                Sys.set_signal Sys.sigint for_int;
                Sys.set_signal Sys.sigterm for_term
              with Invalid_argument _ | Sys_error _ -> ()));
          displaced := None
        end
      end)

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** [mkdir_p path]: create [path] and any missing parents (like
    [mkdir -p]).  Raises [Sys_error] with a clear message when a path
    component already exists but is not a directory. *)
let rec mkdir_p (path : string) : unit =
  if path = "" || path = "." || path = "/" || Filename.basename path = path
     && Filename.dirname path = path
  then ()
  else if Sys.file_exists path then begin
    if not (Sys.is_directory path) then
      raise
        (Sys_error
           (Printf.sprintf "%s exists but is not a directory" path))
  end
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path && Sys.is_directory path ->
      (* a concurrent creator won the race; that's fine *)
      ()
  end
