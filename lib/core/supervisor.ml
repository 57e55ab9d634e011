(** Supervision for the evaluation/training stack: watchdogs, deterministic
    retries, circuit-breaker configuration and graceful shutdown.

    The reward oracle turns thousands of compile-and-measure episodes into
    training signal; on a real testbed some of those episodes hang, some
    fail transiently, and long unattended runs get SIGTERMed.  This module
    is the layer that keeps one bad episode from taking the run down:

    - {b Watchdog.}  The fault spec's stalls are the only evaluations
      that hang; {!Pipeline} sends each one to {!stall_point}, which
      waits out the {!deadline} and raises {!Hung}.  Nothing else is
      ever cancelled, so a slow-but-honest evaluation is never killed
      mid-measurement (which would make results depend on machine
      load).  Outcomes are therefore a pure function of the fault spec:
      stalled points hang and get cancelled, everything else completes
      normally, at any pool size.

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

(* Environment knobs are read once, at module initialization: the
   accessors below run inside pool domains, and a [lazy] forced by two
   domains at once raises [CamlinternalLazy.Undefined].  A setter (the
   CLI's flags, the tests) overwrites the value read here. *)
let env_knob (name : string) (parse : string -> 'a option) (ok : 'a -> bool)
    ~(default : 'a) : 'a ref =
  ref
    (match Sys.getenv_opt name with
    | None | Some "" -> default
    | Some s -> (
        match parse s with
        | Some v when ok v -> v
        | _ ->
            Printf.eprintf
              "neurovec: unparseable %s=%S, using the default\n%!" name s;
            default))

let deadline_ref =
  env_knob "NEUROVEC_DEADLINE" float_of_string_opt (fun f -> f > 0.0)
    ~default:2.0

(** Wall-clock seconds a stalled evaluation waits before the watchdog
    cancels it.  Always finite, so a run under stall faults is always
    bounded. *)
let deadline () : float = !deadline_ref

let set_deadline (d : float) : unit = deadline_ref := max 1e-3 d

let retries_ref =
  env_knob "NEUROVEC_MAX_RETRIES" int_of_string_opt (fun n -> n >= 0)
    ~default:3

(** Retries granted to an evaluation whose attempt failed transiently
    (so a point is tried at most [1 + max_retries ()] times). *)
let max_retries () : int = !retries_ref

let set_max_retries (n : int) : unit = retries_ref := max 0 n

let breaker_ref =
  env_knob "NEUROVEC_BREAKER" int_of_string_opt (fun n -> n >= 0) ~default:5

(** Actions {!Reward.brute_force} probes before tripping the per-program
    circuit breaker when all of them failed; 0 disables the breaker. *)
let breaker_window () : int = !breaker_ref

let set_breaker_window (n : int) : unit = breaker_ref := max 0 n

(* base of the exponential retry backoff; kept tiny (the faults are
   simulated) and overridable so tests can zero it *)
let backoff_ref : float ref = ref 0.002

let set_retry_backoff (s : float) : unit = backoff_ref := max 0.0 s

(* ------------------------------------------------------------------ *)
(* Watchdog                                                             *)
(* ------------------------------------------------------------------ *)

(** The cancellation point entered when the fault spec stalls an
    evaluation ({!Faults.stall_hit}): wait out the {!deadline}, then
    raise {!Hung}. *)
let stall_point ~(name : string) : 'a =
  let d = deadline () in
  Thread.delay d;
  Counter.incr Stats.watchdog_cancels;
  raise
    (Hung
       (Printf.sprintf
          "%s: injected fault: stalled evaluation cancelled by the \
           watchdog after the %.3gs deadline"
          name d))

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
        Counter.incr Stats.transient_retries;
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

(* kept as an alias because perfbench/perfbench.ml calls it; new code
   calls {!Fsio.mkdir_p} *)
let mkdir_p : string -> unit = Fsio.mkdir_p
