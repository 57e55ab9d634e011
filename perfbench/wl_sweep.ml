(** [sweep]: the labelling path.  A cold {!Neurovec.Reward.sweep_all}
    (fresh caches, fresh oracle) over the fixed LLVM, PolyBench and
    MiBench suites plus a seeded Loopgen draw, under discrete faults and
    median-of-5 timing noise, verification off.  Front end, mid-end,
    planner, cycle model, point memo, oracle and pool do all the work;
    there is no network and no verification.

    One unit of work is one labelled program; one latency sample is one
    whole cold sweep of the corpus. *)

open Report

(* discrete faults plus timing noise: noise turns on median-of-5
   resampling in the oracle, which is what the RL reward loop runs *)
let faults =
  Neurovec.Faults.create ~seed:7 ~compile:0.02 ~trap:0.02 ~fuel:0.01
    ~timeout:0.02 ~noise:0.08 ~tail:0.03 ()

let options = { Neurovec.Pipeline.default_options with faults }

let corpus (c : config) : Dataset.Program.t array =
  let drawn = if c.smoke then 4 else 48 in
  Array.concat
    ((if c.smoke then []
      else
        [ Dataset.Llvm_suite.programs; Dataset.Polybench.programs;
          Dataset.Mibench.programs ])
    @ [ Dataset.Loopgen.generate ~seed:c.seed drawn ])

type labels = {
  best : (Rl.Spaces.action * float) option array;
  quarantine : (string * string) list;
}

(* bit equality: same best action, same reward bits, same quarantines *)
let same (a : labels) (b : labels) : bool =
  a.quarantine = b.quarantine
  && Array.length a.best = Array.length b.best
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (ax, rx), Some (ay, ry) ->
             ax = ay && Int64.equal (Int64.bits_of_float rx) (Int64.bits_of_float ry)
         | _ -> false)
       a.best b.best

let cold_oracle programs =
  Neurovec.Frontend.clear ();
  Neurovec.Stats.reset ();
  Neurovec.Reward.create ~options programs

let labels_of oracle best =
  { best; quarantine = Neurovec.Reward.quarantine_report oracle }

(* the decomposed replay: front end, mid-end, then the timed per-program
   brute force, each as a pool map so the replay keeps sweep_all's
   parallelism *)
let traced_sweep (c : config) programs : labels =
  let oracle = cold_oracle programs in
  let map f xs = Neurovec.Parpool.map f xs in
  let each layer f =
    ignore
      (Trace.pool_map ~jobs:c.jobs "parpool" map
         (fun p ->
           Trace.span ~phases:true layer (fun () ->
               try f p with Neurovec.Pipeline.Compile_error _ -> ()))
         programs)
  in
  each "frontend" (fun p -> ignore (Neurovec.Frontend.checked p));
  each "prevec" (fun p -> ignore (Neurovec.Frontend.prevec p));
  let best =
    Trace.pool_map ~jobs:c.jobs "parpool" map
      (fun idx ->
        Trace.span ~phases:true "reward" (fun () ->
            match Neurovec.Reward.brute_force oracle idx with
            | b -> Some b
            | exception Neurovec.Reward.Quarantined _ -> None))
      (Array.init (Array.length programs) Fun.id)
  in
  labels_of oracle best

let run (c : config) : result =
  let setups = ref [] and walls = ref [] and labelled = ref 0 in
  let first = ref None and mismatched = ref 0 in
  let deadline = now () +. c.seconds in
  while !walls = [] || now () < deadline do
    let t0 = now () in
    let programs = corpus c in
    let oracle = cold_oracle programs in
    let t1 = now () in
    let best = Neurovec.Reward.sweep_all oracle in
    let t2 = now () in
    setups := (t1 -. t0) :: !setups;
    walls := (t2 -. t1) :: !walls;
    labelled := !labelled + Array.length programs;
    let l = labels_of oracle best in
    match !first with
    | None -> first := Some l
    | Some f -> if not (same f l) then mismatched := !mismatched + Array.length best
  done;
  let programs = corpus c in
  let first = Option.get !first in
  let reference =
    Neurovec.Parpool.with_jobs 1 (fun () ->
        let oracle = cold_oracle programs in
        labels_of oracle (Neurovec.Reward.sweep_all oracle))
  in
  (* every sweep equals the first, so a first sweep off the reference
     makes every label wrong *)
  if not (same first reference) then mismatched := !labelled;
  let walls = Array.of_list !walls in
  let end_to_end =
    [ ("throughput_per_s", float_of_int !labelled /. sum walls);
      ("latency_p50_ms", 1e3 *. median walls);
      ("latency_p99_ms", 1e3 *. percentile walls 0.99);
      ("peak_rss_mb", peak_rss_mb "self");
      ("setup_s", median (Array.of_list !setups)) ]
  in
  Printf.printf
    "sweep: %d programs x %d actions, %d cold sweeps, %d quarantined, jobs %d\n%!"
    (Array.length programs) (List.length Rl.Spaces.all_actions) (Array.length walls)
    (List.length first.quarantine) c.jobs;
  let per_layer =
    if not c.traced then []
    else begin
      Trace.enabled := true;
      let t0 = now () in
      let traced = traced_sweep c programs in
      let traced_wall = now () -. t0 in
      Trace.enabled := false;
      labelled := !labelled + Array.length programs;
      if not (same traced reference) then
        mismatched := !mismatched + Array.length programs;
      let selfs, wall = Trace.self_times () in
      let untraced = median walls in
      let shares = attribution ~wall ~untraced selfs in
      let progs = Trace.durations "reward" in
      Printf.printf "reward.program_ms_p50 %.3f  reward.program_ms_p99 %.3f  (%d programs)\n"
        (1e3 *. median progs) (1e3 *. percentile progs 0.99) (Array.length progs);
      let s = Neurovec.Stats.snapshot () in
      let maps, eff, over = Trace.pool_stats "parpool" in
      let quarantined = List.length traced.quarantine in
      Trace.write (path c "trace-sweep.jsonl");
      [ ("frontend.entries", float_of_int (Neurovec.Frontend.size ()));
        ("reward.failed",
         float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 s.Neurovec.Stats.failures));
        ("reward.quarantined", float_of_int quarantined);
        ("parpool.maps", float_of_int maps);
        ("parpool.efficiency", eff);
        ("parpool.map_overhead_us", 1e6 *. over);
        ("gc.top_heap_mb", gc_top_heap_mb ());
        ("errors.rate",
         float_of_int quarantined /. float_of_int (Array.length programs));
        ("trace.overhead_pct", 100.0 *. (traced_wall -. untraced) /. untraced) ]
      @ shares @ local_counters ()
    end
  in
  { correct = !mismatched = 0; attempted = !labelled; failed = !mismatched;
    end_to_end; per_layer }
