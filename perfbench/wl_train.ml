(** [train]: {!Neurovec.Framework.create} then {!Neurovec.Framework.train}
    (default hyperparameters, batch 500) over a small seeded Loopgen
    corpus, under the sweep workload's fault spec, writing a checkpoint
    every update.  Training runs until the time budget is spent, finishing
    the update in flight (the [stop] hook).

    Set-up also labels the corpus once through the oracle (the reward
    journal records it), so every update is a warm one: the serial PPO
    update dominates and reward lookups are cache hits, so NN and PPO
    changes show here and pipeline changes should not.  A cold oracle
    would put a seed-dependent burst of evaluations into the first update
    alone and make it the slowest sample by up to 2x.  The first update,
    which also grows the heap, is a warm-up; the [seconds] after it are
    measured.  One unit of work is one environment step; one latency
    sample is one policy update. *)

open Report

let programs (c : config) = Dataset.Loopgen.generate ~seed:c.seed (if c.smoke then 6 else 32)

let options = Wl_sweep.options

let hyper = Rl.Ppo.default_hyper

let remove_prefixed (c : config) (prefix : string) : unit =
  Array.iter
    (fun f ->
      if String.length f >= String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then Sys.remove (path c f))
    (Sys.readdir c.work_dir)

(* a framework from empty caches, counters and files, its oracle then
   warmed with every (sample, action) point.  [Reward.entry] rather than
   [Reward.sweep_all]: the sweep's circuit breaker could quarantine a
   sample the training loop will still draw. *)
let create (c : config) ~(tag : string) : Neurovec.Framework.t =
  remove_prefixed c tag;
  Neurovec.Frontend.clear ();
  Neurovec.Stats.reset ();
  let fw =
    Neurovec.Framework.create ~options ~journal:(path c (tag ^ ".journal"))
      ~seed:c.seed (programs c)
  in
  let points =
    Array.concat
      (List.map
         (fun a ->
           Array.map (fun s -> (s.Rl.Ppo.s_id, a)) fw.Neurovec.Framework.samples)
         Rl.Spaces.all_actions)
  in
  ignore
    (Neurovec.Parpool.map
       (fun (i, a) -> ignore (Neurovec.Reward.entry fw.Neurovec.Framework.oracle i a))
       points);
  fw

let read_file (p : string) : string =
  In_channel.with_open_bin p In_channel.input_all

let greedy (fw : Neurovec.Framework.t) : float =
  Rl.Ppo.evaluate fw.Neurovec.Framework.agent ~samples:fw.Neurovec.Framework.samples
    ~reward:(fun i a -> Neurovec.Reward.reward fw.Neurovec.Framework.oracle i a)

type outcome = {
  steps : int;
  wall : float;
  updates : float array;  (** seconds per update, in order *)
  ckpt : string;
  greedy : float;
}

(* train [fw] until [total_steps] or [stop], which sees the end times of
   the updates done so far (latest first) *)
let train (c : config) (fw : Neurovec.Framework.t) ~(tag : string) ~total_steps ~stop :
    outcome =
  let t0 = now () in
  let marks = ref [] in
  let hist =
    Neurovec.Framework.train ~hyper ~checkpoint_path:(path c (tag ^ ".ckpt"))
      ~checkpoint_every:hyper.Rl.Ppo.batch_size
      ~progress:(fun _ -> marks := now () :: !marks)
      ~stop:(fun () -> stop !marks)
      fw ~total_steps
  in
  let wall = now () -. t0 in
  let steps = match List.rev hist with s :: _ -> s.Rl.Ppo.steps | [] -> 0 in
  let ends = Array.of_list (t0 :: List.rev !marks) in
  { steps; wall; updates = Array.init (Array.length ends - 1) (fun i -> ends.(i + 1) -. ends.(i));
    ckpt = read_file (path c (tag ^ ".ckpt")); greedy = greedy fw }

let same (a : outcome) (b : outcome) =
  a.steps = b.steps && a.ckpt = b.ckpt
  && Int64.equal (Int64.bits_of_float a.greedy) (Int64.bits_of_float b.greedy)

(* the replay: Rl.Ppo.train with exactly the arguments Framework.train
   passes, its reward, rollout_map, progress and stop hooks wrapped.  The
   gap from an update's progress call to the next batch (or to the end)
   is the in-memory snapshot plus the checkpoint save. *)
let traced_train (c : config) (fw : Neurovec.Framework.t) ~total_steps : outcome * int =
  let failed_steps = ref 0 in
  let oracle = fw.Neurovec.Framework.oracle in
  let last_progress = ref None in
  let close_gap () =
    Option.iter (fun t0 -> Trace.interval "checkpoint" ~t0 ~t1:(now ())) !last_progress;
    last_progress := None
  in
  let tag = "replay" in
  let t0 = now () in
  let hist =
    Trace.span "ppo" (fun () ->
        let h =
          Rl.Ppo.train ~hyper
            ~progress:(fun _ -> last_progress := Some (now ()))
            ~checkpoint_path:(path c (tag ^ ".ckpt"))
            ~checkpoint_every:hyper.Rl.Ppo.batch_size
            ~stop:(fun () -> close_gap (); false)
            ~rollout_jobs:(Neurovec.Parpool.jobs ())
            ~rollout_map:(fun f xs ->
              Trace.pool_map ~jobs:c.jobs "parpool"
                (fun f xs -> Neurovec.Parpool.map f xs)
                (fun x -> Trace.span "infer" (fun () -> f x))
                xs)
            fw.Neurovec.Framework.agent ~samples:fw.Neurovec.Framework.samples
            ~reward:(fun idx act ->
              Trace.span ~phases:true "reward" (fun () ->
                  let e = Neurovec.Reward.entry oracle idx act in
                  if e.Neurovec.Reward.e_failure <> None then incr failed_steps;
                  e.Neurovec.Reward.e_reward))
            ~total_steps
        in
        close_gap ();
        h)
  in
  let wall = now () -. t0 in
  let steps = match List.rev hist with s :: _ -> s.Rl.Ppo.steps | [] -> 0 in
  ( { steps; wall; updates = [||]; ckpt = read_file (path c (tag ^ ".ckpt"));
      greedy = greedy fw },
    !failed_steps )

let run (c : config) : result =
  (* three cold set-ups, the median reported; the last one trains *)
  let setups = ref [] and fw = ref None in
  for _ = 1 to 3 do
    let t0 = now () in
    fw := Some (create c ~tag:"train");
    setups := (now () -. t0) :: !setups
  done;
  let fw = Option.get !fw in
  (* the first update grows the heap and is the slowest by up to 1.7x; it
     is a warm-up, and the measured window is the [seconds] after it *)
  let measured =
    train c fw ~tag:"train" ~total_steps:max_int ~stop:(function
      | [] | [ _ ] -> false
      | latest :: rest ->
          c.smoke || latest -. List.hd (List.rev rest) >= c.seconds)
  in
  let window = Array.sub measured.updates 1 (Array.length measured.updates - 1) in
  let rss = peak_rss_mb "self" in
  let reference =
    Neurovec.Parpool.with_jobs 1 (fun () ->
        train c (create c ~tag:"ref") ~tag:"ref" ~total_steps:measured.steps
          ~stop:(fun _ -> false))
  in
  let failed = ref (if same measured reference then 0 else measured.steps) in
  let attempted = ref measured.steps in
  Printf.printf
    "train: %d programs (%d samples), %d steps in %d updates, greedy_reward %.17g, \
     checkpoint %d bytes, jobs %d\n%!"
    (Array.length fw.Neurovec.Framework.train_programs)
    (Array.length fw.Neurovec.Framework.samples) measured.steps
    (Array.length measured.updates) measured.greedy (String.length measured.ckpt) c.jobs;
  Printf.printf "update ms: %s\n%!"
    (String.concat " "
       (Array.to_list (Array.map (fun s -> Printf.sprintf "%.0f" (1e3 *. s)) measured.updates)));
  let end_to_end =
    [ ("throughput_per_s",
       float_of_int (Array.length window * hyper.Rl.Ppo.batch_size) /. sum window);
      ("latency_p50_ms", 1e3 *. median window);
      ("latency_p99_ms", 1e3 *. percentile window 0.99);
      ("peak_rss_mb", rss);
      ("setup_s", median (Array.of_list !setups)) ]
  in
  let per_layer =
    if not c.traced then []
    else begin
      let fw = create c ~tag:"replay" in
      Trace.enabled := true;
      let replay, failed_steps = traced_train c fw ~total_steps:measured.steps in
      Trace.enabled := false;
      attempted := !attempted + replay.steps;
      if not (same replay reference) then failed := !failed + replay.steps;
      let selfs, wall = Trace.self_times () in
      let shares = attribution ~wall ~untraced:measured.wall selfs in
      let ms layer = 1e3 *. sum (Trace.durations layer) in
      let n_upd = float_of_int (max 1 (replay.steps / hyper.Rl.Ppo.batch_size)) in
      Printf.printf
        "per update: ppo.update_ms %.2f  ppo.reward_ms %.2f  ppo.rollout_forward_ms %.2f  \
         checkpoint.save_ms %.2f\n"
        (1e3 *. Option.value ~default:0.0 (List.assoc_opt "ppo" selfs) /. n_upd)
        (ms "reward" /. n_upd) (ms "parpool" /. n_upd) (ms "checkpoint" /. n_upd);
      let s = Neurovec.Stats.snapshot () in
      let maps, eff, over = Trace.pool_stats "parpool" in
      Trace.write (path c "trace-train.jsonl");
      [ ("frontend.entries", float_of_int (Neurovec.Frontend.size ()));
        ("reward.failed",
         float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 s.Neurovec.Stats.failures));
        ("parpool.maps", float_of_int maps);
        ("parpool.efficiency", eff);
        ("parpool.map_overhead_us", 1e6 *. over);
        ("checkpoint.bytes", float_of_int (String.length replay.ckpt));
        ("gc.top_heap_mb", gc_top_heap_mb ());
        ("errors.rate", float_of_int failed_steps /. float_of_int (max 1 replay.steps));
        ("trace.overhead_pct", 100.0 *. (replay.wall -. measured.wall) /. measured.wall) ]
      @ shares @ local_counters ()
    end
  in
  { correct = !failed = 0; attempted = !attempted; failed = !failed; end_to_end; per_layer }
