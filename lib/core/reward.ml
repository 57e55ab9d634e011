(** The reward oracle (paper Section 3.3-3.4).

    reward = (t_baseline - t_action) / t_baseline, so positive means
    "faster than the LLVM baseline cost model's choice"; an action whose
    compile time exceeds 10x the baseline compile time short-circuits to
    the penalty reward -9 (equivalent to 10x the baseline execution time),
    teaching the agent not to over-vectorize.

    All (program, action) evaluations are memoized, and the memo table is
    content-addressed: the key is (source hash, pipeline options, pragma
    decision), so duplicate programs in a dataset share entries regardless
    of their names — mirroring how the paper reuses its brute-force
    measurements as supervised labels.  Each entry records whether the
    compile-time penalty fired, so penalized actions are reported exactly
    (not inferred by comparing the reward against the penalty sentinel,
    which misclassified genuine >10x slowdowns as timeouts).

    {b Failure handling.}  The paper's reward is a measurement on real
    hardware, where individual evaluations fail; the oracle therefore
    never lets an evaluation failure escape as a raw exception:

    - An {e action} evaluation that fails (compile error, runtime trap,
      fuel exhaustion) converts to the penalty reward with the failure
      recorded in the entry and in {!Stats} — the policy update proceeds.
    - A {e baseline} failure means the program cannot be normalized at
      all: the program is quarantined ({!Quarantined} is raised and the
      program is remembered, so drivers can skip it and report it).  A
      baseline measuring zero (e.g. a trip-0 loop) is quarantined too —
      dividing by it would send NaN rewards into the PPO advantages.
    - Under nonzero timing noise ({!Faults.noisy}), every measurement is
      the median of [noise_samples] timing samples with MAD outlier
      rejection, so one heavy-tailed spike cannot poison a cached reward.
      The samples of a point differ only in their noise, so the point is
      evaluated once and its samples derived ({!measure}).

    {b Domain safety and determinism.}  The oracle is shared across the
    {!Parpool} domains, so its tables live behind a per-oracle mutex; the
    expensive compile-and-measure work always runs {e outside} the lock.
    Every measurement point is a pure function of its content key — faults
    and timing noise are keyed by (seed, key, sample index), never by a
    shared RNG — so two domains racing on a cold key compute bit-identical
    entries and a [--jobs N] sweep caches exactly the bits a [--jobs 1]
    sweep caches.  Rewards, penalty flags, failure kinds, quarantine sets
    and {!quarantine_report} order are schedule-independent.
    {!brute_force} fans its 35 actions across the pool when called from
    the main domain, and stays serial when the corpus-level fan-out
    already owns the domains. *)

(** Why an evaluation failed.  [Hung] is a stalled evaluation cancelled by
    the supervisor's watchdog; [Transient] is a retryable fault that kept
    failing past the retry budget; [Miscompiled] is a plan the translation
    validator refuted — deterministic wrong code, never retried, and the
    only kind that quarantines the whole program from {!brute_force}
    (a transform that miscompiles one plan cannot be trusted on the
    others). *)
type failure =
  | Compile_failed
  | Trap
  | Fuel_exhausted
  | Timed_out
  | Hung
  | Transient
  | Miscompiled

let failure_name = function
  | Compile_failed -> "compile"
  | Trap -> "trap"
  | Fuel_exhausted -> "fuel"
  | Timed_out -> "timeout"
  | Hung -> "hung"
  | Transient -> "transient"
  | Miscompiled -> "miscompile"

let failure_of_name = function
  | "compile" -> Some Compile_failed
  | "trap" -> Some Trap
  | "fuel" -> Some Fuel_exhausted
  | "timeout" -> Some Timed_out
  | "hung" -> Some Hung
  | "transient" -> Some Transient
  | "miscompile" -> Some Miscompiled
  | _ -> None

(** Raised when a program's baseline cannot be measured; carries the
    program name and a human-readable reason.  Once raised for a program,
    every later evaluation of it re-raises without re-measuring. *)
exception Quarantined of string * string

type entry = {
  e_reward : float;
  e_penalized : bool;  (** the action was penalized (budget or failure) *)
  e_failure : failure option;  (** why, when [e_penalized] *)
}

type t = {
  programs : Dataset.Program.t array;
  options : Pipeline.options;
  timeout_factor : float;
  penalty : float;
  noise_samples : int;
      (** timing samples per measurement when the fault spec is noisy *)
  subjects : Pipeline.subject array;
      (** per-program keys and constants for {!Pipeline.eval_planned} *)
  keys : string array;
      (** per-program content key: source hash + options, precomputed *)
  lock : Mutex.t;  (** guards every mutable field below *)
  baselines : (string, float * float) Hashtbl.t;
      (** content key -> (exec seconds, compile seconds) *)
  cache : (string, entry) Hashtbl.t;
      (** content key + decision -> reward entry *)
  quarantined : (string, string) Hashtbl.t;  (** content key -> reason *)
  quarantine_idx : (int, unit) Hashtbl.t;
      (** program indices that hit quarantine, for ordered reporting *)
  refutations : (string, string) Hashtbl.t;
      (** content key + decision -> rendered counterexample, for entries
          whose failure kind is [Miscompiled] *)
  mutable journal : journal option;
      (** write-ahead journal; committed entries are appended under the
          oracle lock, so the file never claims a result the tables don't
          hold *)
}

(** The write-ahead reward journal: one flushed line per committed
    baseline, reward entry and quarantine.  On resume, {!replay_journal}
    pre-populates the oracle's tables so completed episodes are never
    re-measured; because every measurement is deterministic, records lost
    to a torn final line are simply re-measured identically. *)
and journal = { j_path : string; j_oc : out_channel }

let create ?(options = Pipeline.default_options) ?(timeout_factor = 10.0)
    ?(penalty = -9.0) ?(noise_samples = 5) (programs : Dataset.Program.t array)
    : t =
  let subjects = Pipeline.subjects ~options programs in
  { programs; options; timeout_factor; penalty; noise_samples; subjects;
    keys =
      Array.map
        (fun s -> s.Pipeline.s_hash ^ "|" ^ s.Pipeline.s_okey)
        subjects;
    lock = Mutex.create ();
    baselines = Hashtbl.create (Array.length programs);
    cache = Hashtbl.create (4 * Array.length programs);
    quarantined = Hashtbl.create 8; quarantine_idx = Hashtbl.create 8;
    refutations = Hashtbl.create 8; journal = None }

let locked (t : t) (f : unit -> 'a) : 'a = Mutex.protect t.lock f

(* ------------------------------------------------------------------ *)
(* Write-ahead journal                                                  *)
(* ------------------------------------------------------------------ *)

(* Format: a header line, then one tab-separated record per committed
   result.  Floats are serialized as the hex of their IEEE bits, so replay
   is bit-exact.  Every record ends with a "." terminator field: a line
   torn by a crash mid-write loses it and is skipped by replay.

     # neurovec-journal 1
     B <key> <exec bits> <compile bits> .
     E <key> <reward bits> <penalized 0|1> <failure name | -> .
     Q <key> <escaped reason> .
     V <key> <escaped counterexample> .
*)

let journal_header = "# neurovec-journal 1"

let bits (f : float) : string = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let float_of_bits_opt (s : string) : float option =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some b -> Some (Int64.float_of_bits b)
  | None -> None

(* called with the oracle lock held, immediately after a fresh commit.
   The append is guarded by the disk-fault layer ({!Fsio}) and fails
   closed: on a fault the file is truncated back to its pre-append
   length — a short write must not leave a torn record for replay to
   trip over — earlier records stay untouched, and the channel is
   reopened so the next commit retries with a fresh attempt index.  The
   in-memory tables already hold the result, so a lost line degrades
   resume coverage, never correctness. *)
let journal_line (t : t) (fields : string list) : unit =
  match t.journal with
  | None -> ()
  | Some j -> (
      let line = String.concat "\t" (fields @ [ "." ]) ^ "\n" in
      (* the channel is flushed after every line, so the file length is
         the true append offset (pos_out is unreliable on append-mode
         channels before their first write) *)
      let before =
        try Some (Unix.stat j.j_path).Unix.st_size with Unix.Unix_error _ -> None
      in
      match Fsio.output ~op:"journal" ~path:j.j_path j.j_oc line with
      | () -> Counter.incr Stats.journal_appends
      | exception Fsio.Disk_fault _ ->
          Counter.incr Fsio.write_errors;
          close_out_noerr j.j_oc;
          (match before with
          | Some len -> ignore (Fsio.truncate_back j.j_path len)
          | None -> ());
          (match
             open_out_gen
               [ Open_append; Open_creat; Open_binary ]
               0o644 j.j_path
           with
          | oc -> t.journal <- Some { j with j_oc = oc }
          | exception Sys_error _ ->
              (* the disk is gone for good: degrade to in-memory only *)
              t.journal <- None))

let journal_baseline t key (e, c) =
  journal_line t [ "B"; key; bits e; bits c ]

let journal_entry t key (e : entry) =
  journal_line t
    [ "E"; key; bits e.e_reward;
      (if e.e_penalized then "1" else "0");
      (match e.e_failure with Some k -> failure_name k | None -> "-") ]

let journal_quarantine t key why =
  journal_line t [ "Q"; key; String.escaped why ]

let journal_refutation t key cx =
  journal_line t [ "V"; key; String.escaped cx ]

(** Attach a write-ahead journal at [path] (append mode; the header is
    written when the file is new or empty).  Every subsequently committed
    baseline, reward entry and quarantine is flushed there, so a killed
    run can {!replay_journal} the completed episodes instead of
    re-measuring them. *)
let set_journal (t : t) (path : string) : unit =
  locked t (fun () ->
      (match t.journal with Some j -> close_out_noerr j.j_oc | None -> ());
      (* a stale .tmp next to the journal is an interrupted atomic write
         by some sibling artifact: dead bytes, swept, never replayed *)
      ignore (Fsio.sweep_tmp path);
      (* a SIGKILL mid-append leaves a torn final line (no trailing
         newline).  Trim it back to the last complete line before opening
         for append, so new records never glue onto torn bytes: the torn
         tail is dropped, every earlier line replays intact. *)
      (if Sys.file_exists path then
         try
           let ic = open_in_bin path in
           let n = in_channel_length ic in
           let keep =
             if n = 0 then 0
             else begin
               seek_in ic (n - 1);
               if input_char ic = '\n' then n
               else begin
                 (* scan back for the last newline *)
                 let rec back i =
                   if i < 0 then 0
                   else begin
                     seek_in ic i;
                     if input_char ic = '\n' then i + 1 else back (i - 1)
                   end
                 in
                 back (n - 2)
               end
             end
           in
           close_in_noerr ic;
           if keep < n then ignore (Fsio.truncate_back path keep)
         with Sys_error _ -> ());
      let fresh =
        (not (Sys.file_exists path))
        || (let ic = open_in_bin path in
            let n = in_channel_length ic in
            close_in ic;
            n = 0)
      in
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
      in
      if fresh then begin
        output_string oc (journal_header ^ "\n");
        flush oc
      end;
      t.journal <- Some { j_path = path; j_oc = oc })

let journal_path (t : t) : string option =
  locked t (fun () -> Option.map (fun j -> j.j_path) t.journal)

let close_journal (t : t) : unit =
  locked t (fun () ->
      match t.journal with
      | None -> ()
      | Some j ->
          close_out_noerr j.j_oc;
          t.journal <- None)

let unescape (s : string) : string =
  try Scanf.sscanf ("\"" ^ s ^ "\"") "%S%!" Fun.id with _ -> s

(** Replay a journal written by a previous (possibly killed) run into the
    oracle's tables, first record wins; returns how many records loaded.
    Malformed or torn lines — and records whose parse fails — are skipped:
    the measurements they described are deterministic, so the resumed run
    re-derives them bit-identically.  Call before evaluating (typically
    right before {!set_journal} on the same path). *)
let replay_journal (t : t) (path : string) : int =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    let loaded = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            match String.split_on_char '\t' line with
            | [ "B"; key; e; c; "." ] -> (
                match (float_of_bits_opt e, float_of_bits_opt c) with
                | Some e, Some c ->
                    locked t (fun () ->
                        if not (Hashtbl.mem t.baselines key) then begin
                          Hashtbl.replace t.baselines key (e, c);
                          incr loaded
                        end)
                | _ -> ())
            | [ "E"; key; r; p; f; "." ] -> (
                match (float_of_bits_opt r, p, f) with
                | Some r, ("0" | "1"), f
                  when f = "-" || failure_of_name f <> None ->
                    let e =
                      { e_reward = r; e_penalized = (p = "1");
                        e_failure =
                          (if f = "-" then None else failure_of_name f) }
                    in
                    locked t (fun () ->
                        if not (Hashtbl.mem t.cache key) then begin
                          Hashtbl.replace t.cache key e;
                          incr loaded
                        end)
                | _ -> ())
            | [ "Q"; key; why; "." ] ->
                locked t (fun () ->
                    if not (Hashtbl.mem t.quarantined key) then begin
                      Hashtbl.replace t.quarantined key (unescape why);
                      incr loaded
                    end)
            | [ "V"; key; cx; "." ] ->
                locked t (fun () ->
                    if not (Hashtbl.mem t.refutations key) then begin
                      Hashtbl.replace t.refutations key (unescape cx);
                      incr loaded
                    end)
            | _ -> ()  (* header, torn line, or unknown record kind *)
          done
        with End_of_file -> ());
    Counter.add Stats.journal_replayed !loaded;
    !loaded
  end

(** Programs dropped so far, as (name, reason): program order, one entry
    per distinct content key (the lowest index that hit it reports) — an
    order that depends only on which programs were evaluated, never on
    the schedule that evaluated them. *)
let quarantine_report (t : t) : (string * string) list =
  locked t (fun () ->
      let idxs =
        List.sort compare
          (Hashtbl.fold (fun i () acc -> i :: acc) t.quarantine_idx [])
      in
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun i ->
          let key = t.keys.(i) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.replace seen key ();
            Option.map
              (fun why -> (t.programs.(i).Dataset.Program.p_name, why))
              (Hashtbl.find_opt t.quarantined key)
          end)
        idxs)

(* ------------------------------------------------------------------ *)
(* Robust measurement                                                   *)
(* ------------------------------------------------------------------ *)

(* [Verify.Tv.Miscompile] deliberately maps to its own kind and NOT to
   [Transient]: a refutation is a pure function of (program, plan), so
   the supervisor's retry loop must never burn its budget re-validating
   one — {!Supervisor.with_retries} only catches [Faults.Transient], and
   this mapping keeps the taxonomy honest once the exception escapes.
   [Verify.Tv.Over_budget] (arrays too large to verify) is a trap: the
   program cannot be evaluated as asked, for any plan, so a baseline
   quarantines as it would on a trap. *)
let classify_exn : exn -> (failure * string) option = function
  | Pipeline.Compile_error msg -> Some (Compile_failed, msg)
  | Ir_interp.Trap msg -> Some (Trap, msg)
  | Faults.Fuel_exhausted msg -> Some (Fuel_exhausted, msg)
  | Supervisor.Hung msg -> Some (Hung, msg)
  | Faults.Transient msg -> Some (Transient, msg)
  | Verify.Tv.Miscompile msg -> Some (Miscompiled, msg)
  | Verify.Tv.Over_budget msg -> Some (Trap, msg)
  | _ -> None

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let nth i = List.nth sorted i in
      if n mod 2 = 1 then nth (n / 2)
      else 0.5 *. (nth ((n / 2) - 1) +. nth (n / 2))

(** Median after rejecting samples more than 3 MADs from the median — the
    standard robust defence against heavy-tailed timing spikes. *)
let robust_estimate (xs : float list) : float =
  let m = median xs in
  let mad = median (List.map (fun x -> abs_float (x -. m)) xs) in
  if mad <= 0.0 then m
  else
    match List.filter (fun x -> abs_float (x -. m) <= 3.0 *. mad) xs with
    | [] -> m
    | kept -> median kept

(** (exec, compile) seconds of one evaluated point: its own figures when
    timing is deterministic, the median-of-k exec time with MAD rejection
    when the fault spec injects noise.  Only the noise depends on the
    timing sample, and it is keyed by the resample index, so samples
    [1 .. k-1] are derived from the point ({!Pipeline.exec_seconds})
    rather than re-evaluated, and the estimate is the same whatever else
    ran in between.  Compile seconds do not depend on the sample. *)
let measure (t : t) (pt : Pipeline.point) : float * float =
  let e0 = pt.Pipeline.pt_exec_seconds in
  if (not (Faults.noisy t.options.Pipeline.faults)) || t.noise_samples <= 1
  then (e0, pt.Pipeline.pt_compile_seconds)
  else begin
    let rest =
      List.init (t.noise_samples - 1) (fun k ->
          Counter.incr Stats.timing_retries;
          Pipeline.exec_seconds ~options:t.options pt ~sample:(k + 1))
    in
    (robust_estimate (e0 :: rest), pt.Pipeline.pt_compile_seconds)
  end

(* (exec, compile) seconds of [plan] on program [idx], one evaluation per
   attempt: the retry loop re-runs attempts that failed transiently, with
   the attempt index keying the injected transient faults so the outcome
   is deterministic at any pool size *)
let measure_plan (t : t) (idx : int) (plan : Pipeline.plan) : float * float =
  Supervisor.with_retries (fun ~attempt ->
      measure t (Pipeline.eval_planned ~attempt t.subjects.(idx) ~plan))

(* ------------------------------------------------------------------ *)
(* Baseline                                                             *)
(* ------------------------------------------------------------------ *)

(* record idx's quarantine (idempotent per key) and raise; lock NOT held.
   [breaker] marks a circuit-breaker trip (counted separately in Stats) *)
let quarantine ?(breaker = false) (t : t) (idx : int) (why : string) : 'a =
  let name = t.programs.(idx).Dataset.Program.p_name in
  let fresh =
    locked t (fun () ->
        Hashtbl.replace t.quarantine_idx idx ();
        if Hashtbl.mem t.quarantined t.keys.(idx) then false
        else begin
          Hashtbl.replace t.quarantined t.keys.(idx) why;
          journal_quarantine t t.keys.(idx) why;
          true
        end)
  in
  if fresh then begin
    Counter.incr Stats.quarantines;
    if breaker then Counter.incr Stats.breaker_trips
  end;
  raise (Quarantined (name, why))

let baseline (t : t) (idx : int) : float * float =
  let key = t.keys.(idx) in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.quarantined key with
        | Some why -> Some (Error why)
        | None -> Option.map Result.ok (Hashtbl.find_opt t.baselines key))
  in
  match cached with
  | Some (Error why) ->
      locked t (fun () -> Hashtbl.replace t.quarantine_idx idx ());
      raise (Quarantined (t.programs.(idx).Dataset.Program.p_name, why))
  | Some (Ok b) -> b
  | None -> (
      match measure_plan t idx Pipeline.Baseline with
      | exception e -> (
          match classify_exn e with
          | Some (kind, msg) ->
              Stats.record_failure (failure_name kind);
              quarantine t idx
                (Printf.sprintf "baseline %s: %s" (failure_name kind) msg)
          | None -> raise e)
      | t_exec, t_compile ->
          if (not (Float.is_finite t_exec)) || t_exec <= 0.0 then
            quarantine t idx
              (Printf.sprintf
                 "baseline execution time %g cannot normalize rewards"
                 t_exec)
          else begin
            let b = (t_exec, t_compile) in
            locked t (fun () ->
                (* keep the first commit: both racers measured the same
                   deterministic point, so either value is the same *)
                match Hashtbl.find_opt t.baselines key with
                | Some winner -> winner
                | None ->
                    Hashtbl.replace t.baselines key b;
                    journal_baseline t key b;
                    b)
          end)

(* ------------------------------------------------------------------ *)
(* Action evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* the cache key of (program, action) *)
let action_key (t : t) (idx : int) (action : Rl.Spaces.action) : string =
  String.concat ""
    [ t.keys.(idx); "|vf="; string_of_int (Rl.Spaces.vf_of action); ",if=";
      string_of_int (Rl.Spaces.if_of action) ]

(** Memoized reward entry of applying [action] to every innermost loop of
    program [idx].  Raises {!Quarantined} if the program's baseline is
    unusable; any failure of the action itself converts to the penalty. *)
let entry (t : t) (idx : int) (action : Rl.Spaces.action) : entry =
  let key = action_key t idx action in
  match locked t (fun () -> Hashtbl.find_opt t.cache key) with
  | Some e ->
      Counter.incr Stats.reward_hits;
      e
  | None -> (
      Counter.incr Stats.reward_misses;
      let t_base, c_base = baseline t idx in
      let finish e =
        locked t (fun () ->
            match Hashtbl.find_opt t.cache key with
            | Some winner -> winner  (* racing duplicate: identical bits *)
            | None ->
                Hashtbl.replace t.cache key e;
                journal_entry t key e;
                e)
      in
      let penalize kind msg =
        Stats.record_failure (failure_name kind);
        (* a refutation is the evidence behind a [Miscompiled] entry; keep
           the rendered counterexample (first commit wins) so quarantine
           reports and the journal carry it *)
        if kind = Miscompiled then
          locked t (fun () ->
              if not (Hashtbl.mem t.refutations key) then begin
                Hashtbl.replace t.refutations key msg;
                journal_refutation t key msg
              end);
        finish
          { e_reward = t.penalty; e_penalized = true; e_failure = Some kind }
      in
      match
        measure_plan t idx
          (Pipeline.All (Rl.Spaces.vf_of action, Rl.Spaces.if_of action))
      with
      | exception e -> (
          match classify_exn e with
          | Some (kind, msg) -> penalize kind msg
          | None -> raise e)
      | t_exec, c_act ->
          if c_act > t.timeout_factor *. c_base then penalize Timed_out ""
          else if (not (Float.is_finite t_exec)) || t_exec < 0.0 then
            (* defensive: a non-finite sample must never reach the PPO
               advantages *)
            penalize Trap ""
          else
            finish
              { e_reward = (t_base -. t_exec) /. t_base; e_penalized = false;
                e_failure = None })

(** Reward of applying [action] to every innermost loop of program [idx]. *)
let reward (t : t) (idx : int) (action : Rl.Spaces.action) : float =
  (entry t idx action).e_reward

(** The rendered counterexample behind a [Miscompiled] entry for
    (program, action), when one was recorded. *)
let refutation (t : t) (idx : int) (action : Rl.Spaces.action) :
    string option =
  let key = action_key t idx action in
  locked t (fun () -> Hashtbl.find_opt t.refutations key)

(** Execution time under [action] (seconds); penalized actions return the
    baseline time scaled by the timeout factor. *)
let exec_seconds (t : t) (idx : int) (action : Rl.Spaces.action) : float =
  let t_base, _ = baseline t idx in
  let e = entry t idx action in
  if e.e_penalized then t.timeout_factor *. t_base
  else t_base *. (1.0 -. e.e_reward)

(** Best action and reward by exhaustive search (35 compilations, memoized;
    actions fan across the {!Parpool} domains).  The argmax reduce runs in
    fixed action order, so ties break identically at any pool size.

    {b Circuit breaker.}  When the fault spec is active, a fixed prefix of
    [Supervisor.breaker_window] actions is probed first (in fixed action
    order); if {e every} probe fails, the program is written off —
    quarantined with a structured per-kind failure summary and counted as
    a breaker trip — instead of burning the remaining evaluations on a
    poisoned program.  Failures are pure functions of (seed, key), and the
    probed prefix is the same at any pool size, so trip decisions are
    deterministic across schedules and identical between [--jobs 1] and
    [--jobs N].  Raises {!Quarantined} on a trip. *)
let brute_force (t : t) (idx : int) : Rl.Spaces.action * float =
  (* measure (or re-raise) the baseline once before fanning out *)
  ignore (baseline t idx);
  let actions = Array.of_list Rl.Spaces.all_actions in
  let w =
    if Faults.active t.options.Pipeline.faults then
      min (Supervisor.breaker_window ()) (Array.length actions)
    else 0
  in
  (* a refuted plan poisons the whole program: a transform that produces
     wrong code for one action cannot be trusted on the others.  Scan
     entries in the fixed action order and quarantine on the lowest-indexed
     [Miscompiled] one, carrying its counterexample — lowest index first so
     the quarantine text is schedule-independent at any [--jobs]. *)
  let miscompile_quarantine (entries : entry array) (off : int) =
    Array.iteri
      (fun i e ->
        if e.e_failure = Some Miscompiled then begin
          let a = actions.(off + i) in
          let cx =
            Option.value ~default:"counterexample unavailable"
              (refutation t idx a)
          in
          quarantine t idx
            (Printf.sprintf "miscompiled (VF=%d, IF=%d): %s"
               (Rl.Spaces.vf_of a) (Rl.Spaces.if_of a) cx)
        end)
      entries
  in
  let prefix = Parpool.map (fun a -> entry t idx a) (Array.sub actions 0 w) in
  miscompile_quarantine prefix 0;
  if w > 0 && Array.for_all (fun e -> e.e_failure <> None) prefix then begin
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun e ->
        match e.e_failure with
        | Some k ->
            let n = failure_name k in
            Hashtbl.replace counts n
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
        | None -> ())
      prefix;
    let summary =
      String.concat ", "
        (List.map
           (fun (k, n) -> Printf.sprintf "%s=%d" k n)
           (List.sort compare
              (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])))
    in
    quarantine ~breaker:true t idx
      (Printf.sprintf "circuit breaker: first %d actions all failed (%s)" w
         summary)
  end;
  let rest =
    Parpool.map
      (fun a -> entry t idx a)
      (Array.sub actions w (Array.length actions - w))
  in
  miscompile_quarantine rest w;
  let rewards =
    Array.map (fun e -> e.e_reward) (Array.append prefix rest)
  in
  let best = ref 0 in
  Array.iteri (fun i r -> if r > rewards.(!best) then best := i) rewards;
  (actions.(!best), rewards.(!best))

(** Evaluate every (program, action) point of the corpus, fanning programs
    across the {!Parpool} domains (each worker sweeps its program's 35
    actions serially).  Quarantined programs yield [None].  Returns each
    program's (best action, best reward) in program order — the whole-corpus
    brute-force sweep of Figure 2, parallelized. *)
let sweep_all (t : t) : (Rl.Spaces.action * float) option array =
  Parpool.map
    (fun idx ->
      match brute_force t idx with
      | best -> Some best
      | exception Quarantined _ -> None)
    (Array.init (Array.length t.programs) Fun.id)
