(** Whole-corpus sweep benchmark (and determinism gate): run the
    brute-force sweep of every (program, action) point serially
    ([--jobs 1]) and on the pool, require the two runs to be
    bit-identical — best actions, reward bits, quarantine report — and
    record absolute throughput and the per-phase time split in
    [BENCH_sweep.json].

    Two workloads are measured:

    - {b deterministic}: one pipeline run per (program, action) point,
      fault spec from [NEUROVEC_FAULTS] (none by default), so CI can
      drive the same gate with discrete, stall and transient faults.
    - {b training}: the configuration the RL loop actually runs — fault
      injection plus lognormal timing noise, so every reward is the
      median of [noise_samples] timing samples, derived from one
      evaluation of the point.

    Each leg (serial or pool, per workload) is timed as the median of
    {!runs} cold sweeps, serial and pool alternating, and written with
    its quartiles: one sub-second sweep is within reach of scheduler
    noise, so one run cannot say whether the pool pays.

    The pool may only change {e where} an evaluation runs, never what it
    computes: every run of a workload must equal its first serial run, and
    a mismatch raises, so the CI smoke steps fail loudly. *)

let corpus_seed = 42

(** Cold sweeps per leg. *)
let runs = 5

(** A leg's runs: the median one (whose stats the report shows) and the
    quartiles of the wall times. *)
type leg = { median : Common.sweep; q1 : float; q3 : float }

let leg_of (sweeps : Common.sweep list) : leg =
  let a = Array.of_list sweeps in
  Array.sort (fun (x : Common.sweep) y -> Float.compare x.seconds y.seconds) a;
  let n = Array.length a in
  { median = a.(n / 2); q1 = a.(n / 4).seconds; q3 = a.(3 * n / 4).seconds }

(** The fixed training-workload fault spec (seed, discrete fault rates,
    timing noise): noise > 0 turns on median-of-k resampling in
    {!Neurovec.Reward.measure}, which is the point of the workload.
    Fixed rather than env-derived so BENCH_sweep.json is comparable
    across machines and runs. *)
let training_faults =
  Neurovec.Faults.create ~seed:7 ~compile:0.02 ~trap:0.02 ~fuel:0.01
    ~timeout:0.02 ~noise:0.08 ~tail:0.03 ()

(* ------------------------------------------------------------------ *)
(* BENCH_sweep.json                                                     *)
(* ------------------------------------------------------------------ *)

(* the cache hit rates of a run, as (JSON key, label, rate) *)
let hit_rates (s : Neurovec.Stats.snapshot) : (string * string * float) list
    =
  let rate table =
    let c = Neurovec.Stats.cache s table in
    Neurovec.Stats.hit_rate ~hits:c.Memo.hits ~misses:c.Memo.misses
  in
  [ ("prevec_hit_rate", "prevec", rate "prevec");
    ("point_memo_hit_rate", "point memo", rate "point");
    ("timing_hit_rate", "timing", rate "timing");
    ("frontend_hit_rate", "front end", rate "artifact") ]

let json_of ~(programs : int) ~(actions : int) ~(jobs_pool : int)
    ~(det_faults : string) ~(det : leg) ~(det_pool : leg) ~(tr : leg)
    ~(tr_pool : leg) : string =
  let num = Common.num in
  let per_sec n (l : leg) =
    num (float_of_int n /. Float.max l.median.seconds 1e-9)
  in
  (* the median run's wall time, then its leg's quartiles *)
  let seconds key (l : leg) =
    [ (key, num l.median.seconds); (key ^ "_q1", num l.q1);
      (key ^ "_q3", num l.q3) ]
  in
  let phases =
    List.map
      (fun (name, secs, _) -> Printf.sprintf "%S: %s" name (num (secs *. 1e3)))
      tr.median.stats.Neurovec.Stats.phases
  in
  let fields =
    [ ("benchmark", "\"sweepbench\"");
      ("programs", string_of_int programs);
      ("actions", string_of_int actions);
      ("jobs_pool", string_of_int jobs_pool);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("runs_per_leg", string_of_int runs);
      ( "training_faults",
        Printf.sprintf "%S" (Neurovec.Faults.descriptor training_faults) );
      ("deterministic_faults", Printf.sprintf "%S" det_faults) ]
    @ seconds "deterministic_seconds" det
    @ seconds "deterministic_pool_seconds" det_pool
    @ [ ("deterministic_programs_per_second", per_sec programs det);
        ("deterministic_pool_programs_per_second", per_sec programs det_pool) ]
    @ seconds "training_seconds" tr
    @ seconds "training_pool_seconds" tr_pool
    @ [ ("training_programs_per_second", per_sec programs tr);
        ("training_pool_programs_per_second", per_sec programs tr_pool);
        ("training_actions_per_second", per_sec (programs * actions) tr);
        ("training_phase_ms", "{ " ^ String.concat ", " phases ^ " }") ]
    @ List.map (fun (key, _, rate) -> (key, num rate)) (hit_rates tr.median.stats)
    @ [ ("quarantined", string_of_int (List.length tr.median.quarantine));
        ("bit_identical", "true") ]
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)
  ^ "\n}"

let required_keys =
  [ "benchmark"; "programs"; "actions"; "jobs_pool"; "cores"; "runs_per_leg";
    "deterministic_seconds"; "deterministic_seconds_q1";
    "deterministic_seconds_q3"; "deterministic_pool_seconds";
    "deterministic_pool_seconds_q1"; "deterministic_pool_seconds_q3";
    "deterministic_programs_per_second"; "training_seconds";
    "training_seconds_q1"; "training_seconds_q3"; "training_pool_seconds";
    "training_pool_seconds_q1"; "training_pool_seconds_q3";
    "training_programs_per_second"; "training_actions_per_second";
    "training_phase_ms"; "prevec_hit_rate"; "point_memo_hit_rate";
    "timing_hit_rate"; "bit_identical" ]

let print () =
  Common.header "Whole-corpus sweep: serial vs pool, same bits, programs/s";
  let jobs = max 2 (Neurovec.Parpool.jobs ()) in
  let programs =
    Array.concat
      [ Dataset.Llvm_suite.programs; Dataset.Polybench.programs;
        Dataset.Mibench.programs;
        Dataset.Loopgen.generate ~seed:corpus_seed (Common.scaled 16) ]
  in
  let n = Array.length programs in
  let actions = List.length Rl.Spaces.all_actions in
  let det_faults = Neurovec.Faults.of_env () in
  let det_desc = Neurovec.Faults.descriptor det_faults in
  Printf.printf
    "corpus: %d programs x %d actions, pool size %d (%d hardware threads)%s\n\
     %!"
    n actions jobs
    (Domain.recommended_domain_count ())
    (if det_desc = "" then "" else ", faults " ^ det_desc);
  let leg ~label (l : leg) =
    let r = l.median in
    Printf.printf
      "  %-11s %6.2f s [%.2f, %.2f] (%.1f programs/s, %.1f actions/s)\n" label
      r.seconds l.q1 l.q3
      (float_of_int n /. Float.max r.seconds 1e-9)
      (float_of_int (n * actions) /. Float.max r.seconds 1e-9);
    Printf.printf "      %s\n"
      (String.concat ", "
         (List.filter_map
            (fun (name, secs, calls) ->
              if calls = 0 then None
              else
                Some (Printf.sprintf "%s %.0fms/%d" name (secs *. 1e3) calls))
            r.stats.Neurovec.Stats.phases))
  in
  let workload ~what ~faults =
    let options = { Neurovec.Pipeline.default_options with faults } in
    let serial = ref [] and pooled = ref [] in
    for _ = 1 to runs do
      serial := Common.sweep ~options ~jobs:1 programs :: !serial;
      pooled := Common.sweep ~options ~jobs programs :: !pooled
    done;
    (* the gate: the pool must not move a bit, and neither may a repeat *)
    let first = List.nth !serial (runs - 1) in
    List.iter (Common.check_identical ~what:(what ^ " sweep (repeat)") first)
      !serial;
    List.iter (Common.check_identical ~what:(what ^ " sweep (pool)") first)
      !pooled;
    let serial = leg_of !serial and pooled = leg_of !pooled in
    leg ~label:"--jobs 1:" serial;
    leg ~label:(Printf.sprintf "--jobs %d:" jobs) pooled;
    (serial, pooled)
  in
  Printf.printf
    "each leg: median [quartiles] of %d cold sweeps, serial and pool \
     alternating\n"
    runs;
  (* deterministic workload: one pipeline run per point *)
  Printf.printf "deterministic workload (one run per point):\n";
  let det, det_pool = workload ~what:"deterministic" ~faults:det_faults in
  (* training workload: fault injection + timing noise, median-of-k
     resampling per point, exactly as the RL reward oracle measures *)
  Printf.printf "training workload (faults%s, median-of-k resampling):\n"
    (Neurovec.Faults.descriptor training_faults);
  let tr, tr_pool = workload ~what:"training" ~faults:training_faults in
  Printf.printf "caches (training, --jobs 1): %s hit rate\n"
    (String.concat ", "
       (List.map
          (fun (_, label, rate) -> Printf.sprintf "%s %.1f%%" label (100. *. rate))
          (hit_rates tr.median.stats)));
  Printf.printf
    "bit-identical: yes (jobs 1 = jobs %d, every run of both workloads; %d \
     + %d quarantined)\n"
    jobs
    (List.length det.median.quarantine)
    (List.length tr.median.quarantine);
  Common.write_bench ~required:required_keys "BENCH_sweep.json"
    (json_of ~programs:n ~actions ~jobs_pool:jobs ~det_faults:det_desc ~det
       ~det_pool ~tr ~tr_pool);
  Printf.printf "%!"
