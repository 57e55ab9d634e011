(** Pipeline instrumentation: per-phase wall time, cache hit/miss counters
    and evaluation counts for the compile-and-measure oracle.

    The reward oracle dominates training cost (every PPO step, brute-force
    sweep, NNS probe and decision-tree label goes through the pipeline), so
    speedups there must be observable, not asserted.  This module is the
    single global scoreboard: {!Frontend} and {!Pipeline} record phase
    timings, {!Reward} records reward-cache traffic, the content caches
    count their own ({!Memo}, read at {!snapshot}), and [bench/main.ml],
    the experiment drivers and the CLI render {!report}.

    {b Domain safety.}  Evaluations fan out across domains ({!Parpool}),
    so a single set of global counters would be racy (lost increments) and
    schedule-dependent.  Instead every domain accumulates into its own
    private record (domain-local storage — increments are plain stores, no
    locks on the hot path), and {!snapshot} merges the records under a
    registry lock with a deterministic reduce: integer counters and the
    failure taxonomy sum exactly (addition is commutative), so counts are
    schedule-independent; only wall-time sums depend on the merge order in
    their last ulp, which is inherent to measuring time.  A worker domain
    folds its record into a retirement accumulator when it exits, so
    nothing is lost when {!Parpool} tears a pool down and the registry
    does not grow with the number of pool launches.

    Counters are process-global; call {!reset} to scope a measurement
    (only between parallel regions — a reset races with live workers). *)

type phase =
  | Parse
  | Sema
  | Lower
  | Polly
  | Scalar_opt  (** LICM + CSE cleanup passes *)
  | Vectorize  (** the loop-vectorization planner *)
  | Timing  (** the target-machine cycle model *)

let all_phases = [ Parse; Sema; Lower; Polly; Scalar_opt; Vectorize; Timing ]

let phase_name = function
  | Parse -> "parse"
  | Sema -> "sema"
  | Lower -> "lower"
  | Polly -> "polly"
  | Scalar_opt -> "licm+cse"
  | Vectorize -> "vectorize"
  | Timing -> "timing"

let n_phases = 7

let phase_index = function
  | Parse -> 0
  | Sema -> 1
  | Lower -> 2
  | Polly -> 3
  | Scalar_opt -> 4
  | Vectorize -> 5
  | Timing -> 6

(* ------------------------------------------------------------------ *)
(* Per-domain records                                                   *)
(* ------------------------------------------------------------------ *)

type record = {
  phase_secs : float array;  (** indexed by [phase_index] *)
  phase_cnts : int array;
  mutable r_reward_hits : int;
  mutable r_reward_misses : int;
  mutable r_pipeline_runs : int;
  r_failures : (string, int) Hashtbl.t;
      (** taxonomy kind -> failed evaluations *)
  mutable r_quarantines : int;
  mutable r_timing_retries : int;
  mutable r_transient_retries : int;
      (** evaluation attempts re-run after a transient fault *)
  mutable r_watchdog_cancels : int;
      (** stalled evaluations cancelled by the supervisor's watchdog *)
  mutable r_breaker_trips : int;
      (** programs quarantined by the per-program circuit breaker *)
  mutable r_journal_appends : int;
      (** records flushed to the write-ahead reward journal *)
  mutable r_journal_replayed : int;
      (** records restored from a reward journal on resume *)
  mutable r_serve_accepted : int;
      (** serve requests admitted to the daemon's queue *)
  mutable r_serve_shed : int;
      (** serve requests rejected with a structured reply (overload,
          open breaker, drain) instead of being processed *)
  mutable r_serve_failed : int;
      (** serve requests answered with a typed failure reply *)
  mutable r_serve_batches : int;
      (** batched forward passes taken by the serve batcher *)
  mutable r_serve_batched : int;
      (** requests covered by those batches (sum of batch sizes) *)
  mutable r_serve_batch_max : int;  (** largest batch seen (merge: max) *)
  mutable r_store_hits : int;  (** on-disk store lookups served *)
  mutable r_store_misses : int;
  mutable r_store_crc_rejects : int;
      (** store entries dropped for failing their CRC / framing checks *)
  mutable r_verify_refutes : int;
      (** evaluations rejected because their plan's verdict is a
          refutation (cached or fresh) *)
  mutable r_verify_cx : int;
      (** fresh counterexamples minted by the validator *)
}

let fresh_record () : record =
  { phase_secs = Array.make n_phases 0.0; phase_cnts = Array.make n_phases 0;
    r_reward_hits = 0; r_reward_misses = 0; r_pipeline_runs = 0;
    r_failures = Hashtbl.create 8; r_quarantines = 0; r_timing_retries = 0;
    r_transient_retries = 0; r_watchdog_cancels = 0; r_breaker_trips = 0;
    r_journal_appends = 0; r_journal_replayed = 0; r_serve_accepted = 0;
    r_serve_shed = 0; r_serve_failed = 0; r_serve_batches = 0;
    r_serve_batched = 0; r_serve_batch_max = 0; r_store_hits = 0;
    r_store_misses = 0; r_store_crc_rejects = 0; r_verify_refutes = 0;
    r_verify_cx = 0 }

let zero_record (r : record) : unit =
  Array.fill r.phase_secs 0 n_phases 0.0;
  Array.fill r.phase_cnts 0 n_phases 0;
  r.r_reward_hits <- 0;
  r.r_reward_misses <- 0;
  r.r_pipeline_runs <- 0;
  Hashtbl.reset r.r_failures;
  r.r_quarantines <- 0;
  r.r_timing_retries <- 0;
  r.r_transient_retries <- 0;
  r.r_watchdog_cancels <- 0;
  r.r_breaker_trips <- 0;
  r.r_journal_appends <- 0;
  r.r_journal_replayed <- 0;
  r.r_serve_accepted <- 0;
  r.r_serve_shed <- 0;
  r.r_serve_failed <- 0;
  r.r_serve_batches <- 0;
  r.r_serve_batched <- 0;
  r.r_serve_batch_max <- 0;
  r.r_store_hits <- 0;
  r.r_store_misses <- 0;
  r.r_store_crc_rejects <- 0;
  r.r_verify_refutes <- 0;
  r.r_verify_cx <- 0

(* merge [src] into [dst] (registry lock held) *)
let merge_into (dst : record) (src : record) : unit =
  for i = 0 to n_phases - 1 do
    dst.phase_secs.(i) <- dst.phase_secs.(i) +. src.phase_secs.(i);
    dst.phase_cnts.(i) <- dst.phase_cnts.(i) + src.phase_cnts.(i)
  done;
  dst.r_reward_hits <- dst.r_reward_hits + src.r_reward_hits;
  dst.r_reward_misses <- dst.r_reward_misses + src.r_reward_misses;
  dst.r_pipeline_runs <- dst.r_pipeline_runs + src.r_pipeline_runs;
  Hashtbl.iter
    (fun k n ->
      Hashtbl.replace dst.r_failures k
        (n + Option.value ~default:0 (Hashtbl.find_opt dst.r_failures k)))
    src.r_failures;
  dst.r_quarantines <- dst.r_quarantines + src.r_quarantines;
  dst.r_timing_retries <- dst.r_timing_retries + src.r_timing_retries;
  dst.r_transient_retries <- dst.r_transient_retries + src.r_transient_retries;
  dst.r_watchdog_cancels <- dst.r_watchdog_cancels + src.r_watchdog_cancels;
  dst.r_breaker_trips <- dst.r_breaker_trips + src.r_breaker_trips;
  dst.r_journal_appends <- dst.r_journal_appends + src.r_journal_appends;
  dst.r_journal_replayed <- dst.r_journal_replayed + src.r_journal_replayed;
  dst.r_serve_accepted <- dst.r_serve_accepted + src.r_serve_accepted;
  dst.r_serve_shed <- dst.r_serve_shed + src.r_serve_shed;
  dst.r_serve_failed <- dst.r_serve_failed + src.r_serve_failed;
  dst.r_serve_batches <- dst.r_serve_batches + src.r_serve_batches;
  dst.r_serve_batched <- dst.r_serve_batched + src.r_serve_batched;
  (* a maximum, not a sum: "largest batch seen" is commutative under max,
     so the merged view stays schedule-independent *)
  dst.r_serve_batch_max <- max dst.r_serve_batch_max src.r_serve_batch_max;
  dst.r_store_hits <- dst.r_store_hits + src.r_store_hits;
  dst.r_store_misses <- dst.r_store_misses + src.r_store_misses;
  dst.r_store_crc_rejects <- dst.r_store_crc_rejects + src.r_store_crc_rejects;
  dst.r_verify_refutes <- dst.r_verify_refutes + src.r_verify_refutes;
  dst.r_verify_cx <- dst.r_verify_cx + src.r_verify_cx

(* registry of live per-domain records + the fold of exited domains *)
let registry_lock = Mutex.create ()
let live : record list ref = ref []
let retired : record = fresh_record ()

let local : record Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = fresh_record () in
      Mutex.protect registry_lock (fun () -> live := r :: !live);
      (* when this domain dies, keep its numbers and drop it from the
         registry so pool teardown loses nothing and leaks nothing *)
      Domain.at_exit (fun () ->
          Mutex.protect registry_lock (fun () ->
              merge_into retired r;
              live := List.filter (fun r' -> r' != r) !live));
      r)

let current () : record = Domain.DLS.get local

(* fold retirement + live records into a fresh merged view *)
let merged () : record =
  Mutex.protect registry_lock (fun () ->
      let m = fresh_record () in
      merge_into m retired;
      List.iter (merge_into m) (List.rev !live);
      m)

(* ------------------------------------------------------------------ *)
(* Recording (hot path: domain-local, no locks)                         *)
(* ------------------------------------------------------------------ *)

(** Run [f], charging its wall time to [phase] (accumulated even when [f]
    raises, so failed compiles still show up in the profile). *)
let time (phase : phase) (f : unit -> 'a) : 'a =
  let r = current () in
  let i = phase_index phase in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      r.phase_secs.(i) <- r.phase_secs.(i) +. (Unix.gettimeofday () -. t0);
      r.phase_cnts.(i) <- r.phase_cnts.(i) + 1)
    f

let reward_hit () =
  let r = current () in
  r.r_reward_hits <- r.r_reward_hits + 1

let reward_miss () =
  let r = current () in
  r.r_reward_misses <- r.r_reward_misses + 1

let pipeline_run () =
  let r = current () in
  r.r_pipeline_runs <- r.r_pipeline_runs + 1

(** Failed evaluations by taxonomy kind ("compile", "trap", "fuel",
    "timeout", ...), recorded by {!Reward} when an action evaluation is
    converted to the penalty reward or a baseline is quarantined. *)
let record_failure (kind : string) : unit =
  let r = current () in
  Hashtbl.replace r.r_failures kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt r.r_failures kind))

(** A program whose baseline measurement failed was dropped from further
    evaluation. *)
let record_quarantine () =
  let r = current () in
  r.r_quarantines <- r.r_quarantines + 1

(** One extra timing sample taken for the median-of-k noise defence. *)
let record_timing_retry () =
  let r = current () in
  r.r_timing_retries <- r.r_timing_retries + 1

(** One evaluation attempt re-run by the supervisor after a transient
    fault. *)
let record_transient_retry () =
  let r = current () in
  r.r_transient_retries <- r.r_transient_retries + 1

(** One stalled evaluation cancelled by the watchdog (recorded by the
    cancelled task in its own domain, so the count is race-free). *)
let record_watchdog_cancel () =
  let r = current () in
  r.r_watchdog_cancels <- r.r_watchdog_cancels + 1

(** One program written off by the per-program circuit breaker. *)
let record_breaker_trip () =
  let r = current () in
  r.r_breaker_trips <- r.r_breaker_trips + 1

(** One record flushed to the write-ahead reward journal. *)
let record_journal_append () =
  let r = current () in
  r.r_journal_appends <- r.r_journal_appends + 1

(** [n] records restored from a reward journal on resume. *)
let record_journal_replayed (n : int) =
  let r = current () in
  r.r_journal_replayed <- r.r_journal_replayed + n

(** One serve request admitted: answered from the store, or queued for
    the batcher. *)
let record_serve_accepted () =
  let r = current () in
  r.r_serve_accepted <- r.r_serve_accepted + 1

(** One serve request shed with a structured reply (queue full, open
    breaker, or drain) instead of being processed. *)
let record_serve_shed () =
  let r = current () in
  r.r_serve_shed <- r.r_serve_shed + 1

(** One serve request answered with a typed failure reply. *)
let record_serve_failed () =
  let r = current () in
  r.r_serve_failed <- r.r_serve_failed + 1

(** One batch of [n] requests taken by the serve batcher. *)
let record_serve_batch (n : int) =
  let r = current () in
  r.r_serve_batches <- r.r_serve_batches + 1;
  r.r_serve_batched <- r.r_serve_batched + n;
  if n > r.r_serve_batch_max then r.r_serve_batch_max <- n

(** One on-disk store lookup served from the store. *)
let record_store_hit () =
  let r = current () in
  r.r_store_hits <- r.r_store_hits + 1

let record_store_miss () =
  let r = current () in
  r.r_store_misses <- r.r_store_misses + 1

(** One store entry dropped for failing its CRC or framing check. *)
let record_store_crc_reject () =
  let r = current () in
  r.r_store_crc_rejects <- r.r_store_crc_rejects + 1

(** One evaluation rejected because its plan's verdict is a refutation. *)
let record_verify_refute () =
  let r = current () in
  r.r_verify_refutes <- r.r_verify_refutes + 1

(** One fresh counterexample minted by the validator. *)
let record_verify_cx () =
  let r = current () in
  r.r_verify_cx <- r.r_verify_cx + 1

(* ------------------------------------------------------------------ *)
(* Merged reads                                                         *)
(* ------------------------------------------------------------------ *)

let phase_seconds (p : phase) : float =
  (merged ()).phase_secs.(phase_index p)

let phase_calls (p : phase) : int = (merged ()).phase_cnts.(phase_index p)

let failure_count (kind : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt (merged ()).r_failures kind)

let hit_rate ~(hits : int) ~(misses : int) : float =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Snapshots and reporting                                              *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  phases : (string * float * int) list;  (** name, total seconds, calls *)
  frontend_hits : int;
  frontend_misses : int;
  prevec_hits : int;
      (** shared pre-vectorization artifact cache ({!Frontend.prevec}) *)
  prevec_misses : int;
  point_hits : int;
      (** evaluation-point memo ({!Pipeline.eval_planned}): actions that
          clamp to an already-measured applied plan *)
  point_misses : int;
  timing_hits : int;  (** per-loop cycle memo ({!Machine.Timing}) *)
  timing_misses : int;
  reward_hits : int;
  reward_misses : int;
  pipeline_runs : int;
  failures : (string * int) list;  (** taxonomy kind -> failed evaluations *)
  quarantines : int;
  timing_retries : int;
  transient_retries : int;
      (** attempts re-run by the supervisor after transient faults *)
  watchdog_cancels : int;  (** stalled evaluations cancelled as [Hung] *)
  breaker_trips : int;  (** programs quarantined by the circuit breaker *)
  journal_appends : int;  (** write-ahead journal records flushed *)
  journal_replayed : int;  (** journal records restored on resume *)
  frontend_evictions : int;
      (** evictions from the artifact, prevec and scalar-ref tables *)
  serve_accepted : int;  (** daemon requests admitted (stored or queued) *)
  serve_shed : int;  (** daemon requests shed with a structured reply *)
  serve_failed : int;  (** daemon requests answered with a typed failure *)
  serve_batches : int;  (** batched forward passes in the daemon *)
  serve_batched : int;  (** requests covered by those batches *)
  serve_batch_max : int;  (** largest batch seen *)
  store_hits : int;  (** on-disk store lookups served *)
  store_misses : int;
  store_crc_rejects : int;  (** store entries dropped by CRC / framing *)
  verify_hits : int;  (** verdict-cache hits ({!Pipeline} [--verify]) *)
  verify_misses : int;  (** verdicts computed by interpretation *)
  verify_refutes : int;  (** evaluations rejected as [Miscompiled] *)
  verify_cx : int;  (** fresh counterexamples minted *)
  vm_compiles : int;  (** modules compiled to {!Ir_vm} bytecode *)
  vm_fallbacks : int;  (** modules the bytecode compiler declined *)
  vm_cache_hits : int;  (** compiled-code cache hits *)
  vm_cache_misses : int;
  vm_evictions : int;  (** compiled-code cache FIFO evictions *)
  vm_steps : int;  (** IR instructions executed by the bytecode VM *)
  vm_deopts : int;  (** VM runs abandoned to the tree walker mid-flight *)
  tree_steps : int;  (** IR instructions tree-walked for verification *)
  tv_evictions : int;  (** scalar-run cache FIFO evictions ({!Verify.Tv}) *)
  caches : Memo.stats list;  (** every content cache ({!Memo.all}) *)
  sentinel_trips : int;  (** numeric-health sentinel trips ({!Rl.Sentinel}) *)
  sentinel_rollbacks : int;  (** automatic checkpoint rollbacks performed *)
  disk_faults_injected : int;  (** disk faults injected by {!Fsio} *)
  disk_write_errors : int;
      (** durable writes that failed closed and degraded or retried *)
  tmp_swept : int;  (** stale [.tmp] files swept at startup, never replayed *)
}

let snapshot () : snapshot =
  let m = merged () in
  let caches = Memo.all () in
  let memo name =
    match List.find_opt (fun c -> c.Memo.name = name) caches with
    | Some c -> c
    | None ->
        { Memo.name; size = 0; cap = 0; hits = 0; misses = 0; evictions = 0 }
  in
  let vm = Ir_vm.stats () in
  {
    phases =
      List.map
        (fun p ->
          (phase_name p, m.phase_secs.(phase_index p),
           m.phase_cnts.(phase_index p)))
        all_phases;
    frontend_hits = (memo "artifact").Memo.hits;
    frontend_misses = (memo "artifact").Memo.misses;
    prevec_hits = (memo "prevec").Memo.hits;
    prevec_misses = (memo "prevec").Memo.misses;
    point_hits = (memo "point").Memo.hits;
    point_misses = (memo "point").Memo.misses;
    timing_hits = (memo "timing").Memo.hits;
    timing_misses = (memo "timing").Memo.misses;
    reward_hits = m.r_reward_hits;
    reward_misses = m.r_reward_misses;
    pipeline_runs = m.r_pipeline_runs;
    failures =
      List.sort compare
        (Hashtbl.fold (fun k n acc -> (k, n) :: acc) m.r_failures []);
    quarantines = m.r_quarantines;
    timing_retries = m.r_timing_retries;
    transient_retries = m.r_transient_retries;
    watchdog_cancels = m.r_watchdog_cancels;
    breaker_trips = m.r_breaker_trips;
    journal_appends = m.r_journal_appends;
    journal_replayed = m.r_journal_replayed;
    frontend_evictions =
      List.fold_left
        (fun n name -> n + (memo name).Memo.evictions)
        0 [ "artifact"; "prevec"; "scalar-ref" ];
    serve_accepted = m.r_serve_accepted;
    serve_shed = m.r_serve_shed;
    serve_failed = m.r_serve_failed;
    serve_batches = m.r_serve_batches;
    serve_batched = m.r_serve_batched;
    serve_batch_max = m.r_serve_batch_max;
    store_hits = m.r_store_hits;
    store_misses = m.r_store_misses;
    store_crc_rejects = m.r_store_crc_rejects;
    verify_hits = (memo "verdict").Memo.hits;
    verify_misses = (memo "verdict").Memo.misses;
    verify_refutes = m.r_verify_refutes;
    verify_cx = m.r_verify_cx;
    vm_compiles = vm.Ir_vm.vs_compiles;
    vm_fallbacks = vm.Ir_vm.vs_fallbacks;
    vm_cache_hits = vm.Ir_vm.vs_cache_hits;
    vm_cache_misses = vm.Ir_vm.vs_cache_misses;
    vm_evictions = vm.Ir_vm.vs_evictions;
    vm_steps = vm.Ir_vm.vs_steps;
    vm_deopts = vm.Ir_vm.vs_deopts;
    tree_steps = Verify.Tv.tree_steps ();
    tv_evictions = (memo "tv-scalar").Memo.evictions;
    caches;
    (* the rl library sits below this one, so its sentinel counters are
       pulled here rather than recorded, like the VM/TV counters above *)
    sentinel_trips = Rl.Sentinel.trip_count ();
    sentinel_rollbacks = Rl.Sentinel.rollback_count ();
    disk_faults_injected = Fsio.faults_injected ();
    disk_write_errors = Fsio.write_errors ();
    tmp_swept = Fsio.tmp_swept ();
  }

let reset () =
  Memo.reset_counters ();
  Ir_vm.reset_stats ();
  Verify.Tv.reset_counters ();
  Rl.Sentinel.reset_counters ();
  Fsio.reset_counters ();
  Mutex.protect registry_lock (fun () ->
      zero_record retired;
      List.iter zero_record !live)

(** Human-readable scoreboard: per-phase wall time and cache hit rates. *)
let report () : string =
  let b = Buffer.create 512 in
  let s = snapshot () in
  Buffer.add_string b "--- pipeline stats ---\n";
  Buffer.add_string b
    (Printf.sprintf "%-12s %10s %12s %12s\n" "phase" "calls" "total ms"
       "mean us");
  List.iter
    (fun (name, seconds, calls) ->
      if calls > 0 then
        Buffer.add_string b
          (Printf.sprintf "%-12s %10d %12.2f %12.2f\n" name calls
             (seconds *. 1e3)
             (seconds *. 1e6 /. float_of_int calls)))
    s.phases;
  Buffer.add_string b
    (Printf.sprintf "front-end cache: %d hits / %d misses (%.1f%% hit rate)\n"
       s.frontend_hits s.frontend_misses
       (100.0 *. hit_rate ~hits:s.frontend_hits ~misses:s.frontend_misses));
  Buffer.add_string b
    (Printf.sprintf "prevec cache:    %d hits / %d misses (%.1f%% hit rate)\n"
       s.prevec_hits s.prevec_misses
       (100.0 *. hit_rate ~hits:s.prevec_hits ~misses:s.prevec_misses));
  Buffer.add_string b
    (Printf.sprintf "point memo:      %d hits / %d misses (%.1f%% hit rate)\n"
       s.point_hits s.point_misses
       (100.0 *. hit_rate ~hits:s.point_hits ~misses:s.point_misses));
  Buffer.add_string b
    (Printf.sprintf "timing memo:     %d hits / %d misses (%.1f%% hit rate)\n"
       s.timing_hits s.timing_misses
       (100.0
       *. hit_rate ~hits:s.timing_hits ~misses:s.timing_misses));
  Buffer.add_string b
    (Printf.sprintf "reward cache:    %d hits / %d misses (%.1f%% hit rate)\n"
       s.reward_hits s.reward_misses
       (100.0 *. hit_rate ~hits:s.reward_hits ~misses:s.reward_misses));
  Buffer.add_string b
    (Printf.sprintf "pipeline evaluations: %d\n" s.pipeline_runs);
  if s.failures <> [] then
    Buffer.add_string b
      (Printf.sprintf "reward failures: %s\n"
         (String.concat " "
            (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) s.failures)));
  if s.quarantines > 0 then
    Buffer.add_string b
      (Printf.sprintf "quarantined programs: %d\n" s.quarantines);
  if s.timing_retries > 0 then
    Buffer.add_string b
      (Printf.sprintf "timing resamples (median-of-k): %d\n" s.timing_retries);
  if s.transient_retries > 0 then
    Buffer.add_string b
      (Printf.sprintf "transient retries: %d\n" s.transient_retries);
  if s.watchdog_cancels > 0 then
    Buffer.add_string b
      (Printf.sprintf "watchdog cancellations: %d\n" s.watchdog_cancels);
  if s.breaker_trips > 0 then
    Buffer.add_string b
      (Printf.sprintf "circuit-breaker trips: %d\n" s.breaker_trips);
  if s.journal_appends > 0 || s.journal_replayed > 0 then
    Buffer.add_string b
      (Printf.sprintf "reward journal: %d appended / %d replayed\n"
         s.journal_appends s.journal_replayed);
  if List.exists (fun c -> c.Memo.evictions > 0) s.caches then
    Buffer.add_string b
      (Printf.sprintf "cache evictions: %s\n"
         (String.concat " "
            (List.map
               (fun c -> Printf.sprintf "%s=%d" c.Memo.name c.Memo.evictions)
               s.caches)));
  if s.serve_accepted > 0 || s.serve_shed > 0 || s.serve_failed > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "serve requests: %d accepted / %d shed / %d failed / %d retried\n"
         s.serve_accepted s.serve_shed s.serve_failed s.transient_retries);
  if s.serve_batches > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "serve batches: %d (mean size %.1f, max %d)\n" s.serve_batches
         (float_of_int s.serve_batched /. float_of_int s.serve_batches)
         s.serve_batch_max);
  if s.store_hits > 0 || s.store_misses > 0 || s.store_crc_rejects > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "on-disk store:   %d hits / %d misses (%.1f%% hit rate), %d CRC \
          rejects\n"
         s.store_hits s.store_misses
         (100.0 *. hit_rate ~hits:s.store_hits ~misses:s.store_misses)
         s.store_crc_rejects);
  if s.verify_hits > 0 || s.verify_misses > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "verify cache:    %d hits / %d misses (%.1f%% hit rate), %d \
          refutations (%d counterexamples)\n"
         s.verify_hits s.verify_misses
         (100.0 *. hit_rate ~hits:s.verify_hits ~misses:s.verify_misses)
         s.verify_refutes s.verify_cx);
  if s.vm_cache_hits > 0 || s.vm_cache_misses > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "vm code cache:   %d hits / %d misses (%.1f%% hit rate), %d \
          compiled / %d fallbacks, %d evictions\n"
         s.vm_cache_hits s.vm_cache_misses
         (100.0 *. hit_rate ~hits:s.vm_cache_hits ~misses:s.vm_cache_misses)
         s.vm_compiles s.vm_fallbacks s.vm_evictions);
  if s.vm_steps > 0 || s.tree_steps > 0 then
    Buffer.add_string b
      (Printf.sprintf "interpreted steps: %d vm / %d tree-walked%s\n" s.vm_steps
         s.tree_steps
         (if s.vm_deopts > 0 then Printf.sprintf ", %d deopts" s.vm_deopts
          else ""));
  if s.sentinel_trips > 0 || s.sentinel_rollbacks > 0 then
    Buffer.add_string b
      (Printf.sprintf "sentinels: %d trips / %d rollbacks\n" s.sentinel_trips
         s.sentinel_rollbacks);
  if s.disk_faults_injected > 0 || s.disk_write_errors > 0 then
    Buffer.add_string b
      (Printf.sprintf "disk faults: %d injected / %d write errors absorbed\n"
         s.disk_faults_injected s.disk_write_errors);
  if s.tmp_swept > 0 then
    Buffer.add_string b
      (Printf.sprintf "stale temp files swept: %d\n" s.tmp_swept);
  Buffer.contents b
