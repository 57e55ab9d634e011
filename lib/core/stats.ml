(** Pipeline instrumentation: per-phase wall time, the failure taxonomy,
    and the event counts of the compile-and-measure oracle.

    The reward oracle dominates training cost (every PPO step, brute-force
    sweep, NNS probe and decision-tree label goes through the pipeline), so
    speedups there must be observable, not asserted.  This module is the
    single global scoreboard: {!Frontend} and {!Pipeline} record phase
    timings, {!Reward} records failures, every layer counts its events in
    the {!Counter} registry (the core and serve counts are declared below;
    {!Memo}, [Ir_vm], {!Verify.Tv}, {!Rl.Sentinel} and {!Fsio} declare
    their own), and [bench/main.ml], the experiment drivers and the CLI
    render {!report}.

    {b Domain safety.}  Evaluations fan out across domains ({!Parpool}).
    Counts are atomic, so they are exact and schedule-independent.  Phase
    times and failures accumulate per domain instead (domain-local storage
    — plain stores, no locks on the hot path), and {!snapshot} merges the
    records under a registry lock with a deterministic reduce: the failure
    taxonomy sums exactly, so it is schedule-independent; only wall-time
    sums depend on the merge order in their last ulp, which is inherent to
    measuring time.  A worker domain folds its record into a retirement
    accumulator when it exits, so nothing is lost when {!Parpool} tears a
    pool down and the registry does not grow with the number of pool
    launches.

    Everything is process-global; call {!reset} to scope a measurement
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
(* Counts                                                               *)
(* ------------------------------------------------------------------ *)

(** Reward-cache lookups answered and computed, and full pipeline
    evaluations. *)
let reward_hits = Counter.make "reward.hits"
let reward_misses = Counter.make "reward.misses"
let pipeline_runs = Counter.make "pipeline.runs"

(** Programs dropped from further evaluation because their baseline
    measurement failed. *)
let quarantines = Counter.make "reward.quarantines"

(** Extra timing samples taken for the median-of-k noise defence. *)
let timing_retries = Counter.make "reward.timing_retries"

(** Evaluation attempts re-run by the supervisor after a transient fault. *)
let transient_retries = Counter.make "supervisor.transient_retries"

(** Stalled evaluations cancelled by the watchdog. *)
let watchdog_cancels = Counter.make "supervisor.watchdog_cancels"

(** Programs written off by the per-program circuit breaker. *)
let breaker_trips = Counter.make "supervisor.breaker_trips"

(** Records flushed to, and restored from, the write-ahead reward
    journal. *)
let journal_appends = Counter.make "journal.appends"
let journal_replayed = Counter.make "journal.replayed"

(** Serve requests admitted (answered from the store or queued), shed with
    a structured reply (queue full, open breaker, drain), and answered
    with a typed failure. *)
let serve_accepted = Counter.make "serve.accepted"
let serve_shed = Counter.make "serve.shed"
let serve_failed = Counter.make "serve.failed"

(** Batched forward passes taken by the serve daemon's miss workers, the
    misses they covered, and the largest batch (a high-water mark). *)
let serve_batches = Counter.make "serve.batches"
let serve_batched = Counter.make "serve.batched"
let serve_batch_max = Counter.make "serve.batch_max"

(** On-disk store lookups served and missed, and entries dropped for
    failing their CRC or framing check. *)
let store_hits = Counter.make "store.hits"
let store_misses = Counter.make "store.misses"
let store_crc_rejects = Counter.make "store.crc_rejects"

(** Evaluations rejected because their plan's verdict is a refutation
    (cached or fresh), and fresh counterexamples minted by the
    validator. *)
let verify_refutes = Counter.make "verify.refutes"
let verify_cx = Counter.make "verify.counterexamples"

(* ------------------------------------------------------------------ *)
(* Per-domain records                                                   *)
(* ------------------------------------------------------------------ *)

type record = {
  phase_secs : float array;  (** indexed by [phase_index] *)
  phase_cnts : int array;
  r_failures : (string, int) Hashtbl.t;
      (** taxonomy kind -> failed evaluations *)
}

let fresh_record () : record =
  { phase_secs = Array.make n_phases 0.0; phase_cnts = Array.make n_phases 0;
    r_failures = Hashtbl.create 8 }

let zero_record (r : record) : unit =
  Array.fill r.phase_secs 0 n_phases 0.0;
  Array.fill r.phase_cnts 0 n_phases 0;
  Hashtbl.reset r.r_failures

(* merge [src] into [dst] (registry lock held) *)
let merge_into (dst : record) (src : record) : unit =
  for i = 0 to n_phases - 1 do
    dst.phase_secs.(i) <- dst.phase_secs.(i) +. src.phase_secs.(i);
    dst.phase_cnts.(i) <- dst.phase_cnts.(i) + src.phase_cnts.(i)
  done;
  Hashtbl.iter
    (fun k n ->
      Hashtbl.replace dst.r_failures k
        (n + Option.value ~default:0 (Hashtbl.find_opt dst.r_failures k)))
    src.r_failures

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

(** Failed evaluations by taxonomy kind ("compile", "trap", "fuel",
    "timeout", ...), recorded by {!Reward} when an action evaluation is
    converted to the penalty reward or a baseline is quarantined. *)
let record_failure (kind : string) : unit =
  let r = current () in
  Hashtbl.replace r.r_failures kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt r.r_failures kind))

(* ------------------------------------------------------------------ *)
(* Merged reads                                                         *)
(* ------------------------------------------------------------------ *)

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
  failures : (string * int) list;  (** taxonomy kind -> failed evaluations *)
  caches : Memo.stats list;  (** every content cache ({!Memo.all}) *)
}

let snapshot () : snapshot =
  let m = merged () in
  {
    phases =
      List.map
        (fun p ->
          (phase_name p, m.phase_secs.(phase_index p),
           m.phase_cnts.(phase_index p)))
        all_phases;
    failures =
      List.sort compare
        (Hashtbl.fold (fun k n acc -> (k, n) :: acc) m.r_failures []);
    caches = Memo.all ();
  }

(** The content cache named [name] in [s] (all zeros when no such table
    is linked into the process). *)
let cache (s : snapshot) (name : string) : Memo.stats =
  match List.find_opt (fun c -> c.Memo.name = name) s.caches with
  | Some c -> c
  | None -> { Memo.name; size = 0; cap = 0; hits = 0; misses = 0; evictions = 0 }

let reset () =
  Counter.reset_all ();
  Mutex.protect registry_lock (fun () ->
      zero_record retired;
      List.iter zero_record !live)

(** Human-readable scoreboard: per-phase wall time, cache hit rates and
    every nonzero count. *)
let report () : string =
  let b = Buffer.create 512 in
  let s = snapshot () in
  let n = Counter.get in
  (* "<label>: H hits / M misses (R% hit rate)", labels padded to one
     column; the caller ends the line *)
  let hits_line label ~hits ~misses =
    Printf.bprintf b "%-17s%d hits / %d misses (%.1f%% hit rate)"
      (label ^ ":") hits misses
      (100.0 *. hit_rate ~hits ~misses)
  in
  let memo_line label name =
    let c = cache s name in
    hits_line label ~hits:c.Memo.hits ~misses:c.Memo.misses;
    Buffer.add_char b '\n'
  in
  let count_line label c =
    if n c > 0 then Printf.bprintf b "%s: %d\n" label (n c)
  in
  Buffer.add_string b "--- pipeline stats ---\n";
  Printf.bprintf b "%-12s %10s %12s %12s\n" "phase" "calls" "total ms"
    "mean us";
  List.iter
    (fun (name, seconds, calls) ->
      if calls > 0 then
        Printf.bprintf b "%-12s %10d %12.2f %12.2f\n" name calls
          (seconds *. 1e3)
          (seconds *. 1e6 /. float_of_int calls))
    s.phases;
  memo_line "front-end cache" "artifact";
  memo_line "prevec cache" "prevec";
  memo_line "point memo" "point";
  memo_line "timing memo" "timing";
  hits_line "reward cache" ~hits:(n reward_hits) ~misses:(n reward_misses);
  Buffer.add_char b '\n';
  Printf.bprintf b "pipeline evaluations: %d\n" (n pipeline_runs);
  if s.failures <> [] then
    Printf.bprintf b "reward failures: %s\n"
      (String.concat " "
         (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) s.failures));
  count_line "quarantined programs" quarantines;
  count_line "timing resamples (median-of-k)" timing_retries;
  count_line "transient retries" transient_retries;
  count_line "watchdog cancellations" watchdog_cancels;
  count_line "circuit-breaker trips" breaker_trips;
  if n journal_appends > 0 || n journal_replayed > 0 then
    Printf.bprintf b "reward journal: %d appended / %d replayed\n"
      (n journal_appends) (n journal_replayed);
  if List.exists (fun c -> c.Memo.evictions > 0) s.caches then
    Printf.bprintf b "cache evictions: %s\n"
      (String.concat " "
         (List.map
            (fun c -> Printf.sprintf "%s=%d" c.Memo.name c.Memo.evictions)
            s.caches));
  if n serve_accepted > 0 || n serve_shed > 0 || n serve_failed > 0 then
    Printf.bprintf b
      "serve requests: %d accepted / %d shed / %d failed / %d retried\n"
      (n serve_accepted) (n serve_shed) (n serve_failed)
      (n transient_retries);
  if n serve_batches > 0 then
    Printf.bprintf b "serve batches: %d (mean size %.1f, max %d)\n"
      (n serve_batches)
      (float_of_int (n serve_batched) /. float_of_int (n serve_batches))
      (n serve_batch_max);
  if n store_hits > 0 || n store_misses > 0 || n store_crc_rejects > 0 then begin
    hits_line "on-disk store" ~hits:(n store_hits) ~misses:(n store_misses);
    Printf.bprintf b ", %d CRC rejects\n" (n store_crc_rejects)
  end;
  let v = cache s "verdict" in
  if v.Memo.hits > 0 || v.Memo.misses > 0 then begin
    hits_line "verify cache" ~hits:v.Memo.hits ~misses:v.Memo.misses;
    Printf.bprintf b ", %d refutations (%d counterexamples)\n"
      (n verify_refutes) (n verify_cx)
  end;
  if n Verify.Tv.proved > 0 || n Verify.Tv.unproved > 0 then
    Printf.bprintf b "verify proofs: %d proved / %d by the ladder\n"
      (n Verify.Tv.proved) (n Verify.Tv.unproved);
  let vm = cache s "vm-code" in
  if vm.Memo.hits > 0 || vm.Memo.misses > 0 then begin
    hits_line "vm code cache" ~hits:vm.Memo.hits ~misses:vm.Memo.misses;
    Printf.bprintf b ", %d compiled / %d fallbacks, %d evictions\n"
      (n Ir_vm.compiles) (n Ir_vm.fallbacks) vm.Memo.evictions
  end;
  if n Ir_vm.vm_steps > 0 || n Verify.Tv.tree_steps > 0 then
    Printf.bprintf b "interpreted steps: %d vm / %d tree-walked%s\n"
      (n Ir_vm.vm_steps) (n Verify.Tv.tree_steps)
      (if n Ir_vm.deopts > 0 then Printf.sprintf ", %d deopts" (n Ir_vm.deopts)
       else "");
  if n Rl.Sentinel.trips > 0 || n Rl.Sentinel.rollbacks > 0 then
    Printf.bprintf b "sentinels: %d trips / %d rollbacks\n"
      (n Rl.Sentinel.trips) (n Rl.Sentinel.rollbacks);
  if n Fsio.injected > 0 || n Fsio.write_errors > 0 then
    Printf.bprintf b "disk faults: %d injected / %d write errors absorbed\n"
      (n Fsio.injected) (n Fsio.write_errors);
  count_line "stale temp files swept" Fsio.tmp_swept;
  Buffer.contents b
