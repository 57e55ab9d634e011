(** Proximal Policy Optimization for the vectorization contextual bandit.

    Episodes are one step long (paper Section 2.3): observe a loop's
    embedding, pick (VF, IF), receive the normalized execution-time
    improvement as reward. The update is the standard clipped-surrogate
    PPO loss with a value baseline and entropy bonus:

    {v L = -E[min(r A, clip(r, 1-eps, 1+eps) A)]
           + vf_coef * 0.5 (V - R)^2 - ent_coef * H v}

    with [r = pi(a|s)/pi_old(a|s)] and advantage [A = R - V_old]. *)

type hyper = {
  lr : float;
  batch_size : int;  (** environment steps per policy update *)
  minibatch : int;
  epochs : int;  (** SGD epochs over each batch *)
  clip : float;
  vf_coef : float;
  ent_coef : float;
}

let default_hyper =
  { lr = 5e-4; batch_size = 500; minibatch = 64; epochs = 4; clip = 0.2;
    vf_coef = 0.5; ent_coef = 0.01 }

(** One environment sample: a loop, pre-encoded to vocabulary ids. *)
type sample = { s_id : int; s_ids : Embedding.Code2vec.ids array }

(** Per-update statistics, one record per policy update (the persisted
    form lives in {!Train_state} so checkpoints can carry the history). *)
type stats = Train_state.stats = {
  update : int;
  steps : int;  (** cumulative environment steps *)
  reward_mean : float;
  loss : float;
  entropy_mean : float;
}

type transition = {
  t_sample : sample;
  t_taken : Agent.taken;
  t_value : float;
  t_reward : float;
}

(** Train [agent] for [total_steps] environment steps.

    [reward sample_id action] is the environment: it compiles the program
    with the chosen pragma and returns the normalized improvement (or the
    -9 timeout penalty). Returns the per-update statistics history.

    [checkpoint_path] enables crash-safe training: a resumable checkpoint
    (agent + {!Train_state.t}) is written there after every
    [checkpoint_every] environment steps (0 = only at completion), and
    always once the step budget is reached.  [resume] continues a previous
    run: counters, statistics history and the optimizer (Adam moments) are
    restored, and [total_steps] is interpreted cumulatively — resuming a
    checkpoint taken at an update boundary reproduces the uninterrupted
    run exactly, because the agent's RNG state rides in the checkpoint.
    On resume the restored optimizer is used as-is ([hyper.lr] does not
    re-apply).

    [stop] is polled before each batch (graceful shutdown): when it
    returns [true], training ends at the current update boundary — the
    in-flight batch having completed in full — and the final checkpoint
    is written as usual.  Because updates are the checkpoint granularity,
    a stopped run resumed with [resume] reproduces the uninterrupted
    trajectory bit for bit.

    Each rollout batch consumes the RNG stream step by step (the sample
    pick, then {!Agent.draw}'s action randomness), then one
    {!Agent.forward_batch} evaluates every step and {!Agent.sample_with}
    applies the pre-drawn randomness.  [rollout_jobs]/[rollout_map] shard
    that forward across an injected parallel map; rows are independent,
    so the shard count moves no bit.  Each PPO minibatch runs one
    {!Agent.forward_chunk}, the per-row loss arithmetic in row order, and
    one {!Agent.backward_chunk}, all on the calling domain.

    {b Self-healing.}  After every update the numeric-health sentinels
    ({!Sentinel.check}) inspect the loss, entropy, approx-KL, reward
    scale, weights, gradients and optimizer moments.  A trip rolls the
    run back to the newest known-good state — the checkpoint lineage on
    disk when [checkpoint_path] is set ({!Checkpoint.Lineage}, ring depth
    [keep_checkpoints]), an in-memory snapshot of the last healthy update
    otherwise — quarantines a dump of the sick state as
    [<checkpoint_path>.bad], and applies the deterministic backoff
    ({!Sentinel.backoff}: halve LR, tighten clip), pure in
    (seed, rollback count) so recovery is identical at any pool size and
    across kill-and-resume.  More than [sentinel.max_rollbacks] trips
    raise {!Sentinel.Unrecoverable}.  A periodic checkpoint save that
    fails under a disk fault ({!Fsio.Disk_fault}) is absorbed — the
    previous checkpoint is intact and the next boundary retries — while
    the final save retries and then lets the typed error escape. *)
let train ?(hyper = default_hyper) ?(progress = fun (_ : stats) -> ())
    ?checkpoint_path ?(checkpoint_every = 0) ?(keep_checkpoints = 3)
    ?(sentinel = Sentinel.default)
    ?(stop = fun () -> false)
    ?(rollout_jobs = 1)
    ?(rollout_map = fun f xs -> Array.map f xs)
    ?(resume : Train_state.t option) (agent : Agent.t)
    ~(samples : sample array) ~(reward : int -> Spaces.action -> float)
    ~(total_steps : int) : stats list =
  let rng = agent.Agent.rng in
  let opt0, steps0, update0, history0, rollbacks0 =
    match resume with
    | Some st ->
        (st.Train_state.ts_optim, st.Train_state.ts_steps,
         st.Train_state.ts_update, List.rev st.Train_state.ts_history,
         st.Train_state.ts_rollbacks)
    | None -> (Nn.Optim.adam ~lr:hyper.lr (), 0, 0, [], 0)
  in
  let opt = ref opt0 in
  let history = ref history0 in
  let steps_done = ref steps0 in
  let update = ref update0 in
  let rollbacks = ref rollbacks0 in
  let last_checkpoint = ref steps0 in
  (* the effective clip is a pure function of the persisted rollback
     count, so a resumed run reconstructs the backoff it was under *)
  let seed = sentinel.Sentinel.backoff_seed in
  let clip =
    ref
      (hyper.clip
      *. (Sentinel.backoff ~seed ~rollbacks:rollbacks0).Sentinel.clip_scale)
  in
  (* stale temp files from an atomic write interrupted by a kill are
     swept before anything else: they are dead bytes, never replayed *)
  (match checkpoint_path with
  | Some path -> ignore (Checkpoint.Lineage.sweep ~keep:keep_checkpoints path)
  | None -> ());
  let mem_state () =
    { Train_state.ts_steps = !steps_done; ts_update = !update;
      ts_history = List.rev !history; ts_optim = !opt;
      ts_rollbacks = !rollbacks }
  in
  (* in-memory last-known-good snapshot: the rollback source while no
     disk lineage exists (checkpointing disabled, or no periodic save
     has happened yet) *)
  let snapshot = ref (Marshal.to_string (agent, mem_state ()) []) in
  let take_snapshot () =
    snapshot := Marshal.to_string (agent, mem_state ()) []
  in
  let save_checkpoint () =
    match checkpoint_path with
    | None -> ()
    | Some path ->
        last_checkpoint := !steps_done;
        Checkpoint.Lineage.save ~keep:keep_checkpoints
          ~state:(mem_state ()) agent path
  in
  (* ---- sentinel recovery ---- *)
  let rollback (trip : Sentinel.trip) : unit =
    Counter.incr Sentinel.trips;
    let r = !rollbacks + 1 in
    if r > sentinel.Sentinel.max_rollbacks then
      raise
        (Sentinel.Unrecoverable
           (Printf.sprintf "%s after %d rollbacks"
              (Sentinel.describe trip) !rollbacks));
    (* quarantine a post-mortem dump of the sick state (best-effort,
       plain write: the disk-fault layer must not block the autopsy) *)
    (match checkpoint_path with
    | Some path -> (
        try
          let oc = open_out_bin (path ^ ".bad") in
          output_string oc (Checkpoint.compose ~state:(mem_state ()) agent);
          close_out_noerr oc
        with Sys_error _ -> ())
    | None -> ());
    (* restore the newest known-good state.  With a checkpoint path the
       disk lineage is authoritative — it is the only state a killed run
       can resume from, so using it keeps the recovered trajectory
       identical across kill-and-resume; the in-memory snapshot covers
       runs without one (and the window before the first save). *)
    let restored : Train_state.t =
      let from_memory () =
        let (src : Agent.t), (st : Train_state.t) =
          Marshal.from_string !snapshot 0
        in
        Agent.restore ~src agent;
        st
      in
      match checkpoint_path with
      | None -> from_memory ()
      | Some path -> (
          match
            Checkpoint.Lineage.newest_good ~keep:keep_checkpoints path
          with
          | Some (_, src, Some st) ->
              Agent.restore ~src agent;
              st
          | Some (_, _, None) | None -> from_memory ())
    in
    steps_done := restored.Train_state.ts_steps;
    update := restored.Train_state.ts_update;
    history := List.rev restored.Train_state.ts_history;
    last_checkpoint := restored.Train_state.ts_steps;
    rollbacks := r;
    (* deterministic backoff, recomputed from the base hyperparameters
       and the cumulative rollback count *)
    let prev = Sentinel.backoff ~seed ~rollbacks:restored.ts_rollbacks in
    let next = Sentinel.backoff ~seed ~rollbacks:r in
    let base_lr =
      Nn.Optim.lr restored.Train_state.ts_optim /. prev.Sentinel.lr_scale
    in
    opt :=
      Nn.Optim.with_lr restored.Train_state.ts_optim
        (base_lr *. next.Sentinel.lr_scale);
    clip := hyper.clip *. next.Sentinel.clip_scale;
    Counter.incr Sentinel.rollbacks;
    (match checkpoint_path with
    | Some path ->
        Checkpoint.Lineage.log_event path
          [ "R"; string_of_int !update; string_of_int !steps_done;
            string_of_int r; String.escaped (Sentinel.describe trip) ]
    | None -> ());
    take_snapshot ()
  in
  while !steps_done < total_steps && not (stop ()) do
    (* ---- collect a batch under the current (frozen) policy ---- *)
    let n = min hyper.batch_size (total_steps - !steps_done) in
    let batch =
      let picks =
        Array.init n (fun _ ->
            let s = samples.(Nn.Rng.int rng (Array.length samples)) in
            let d = Agent.draw agent in
            (s, d))
      in
      let outs =
        Agent.forward_batch ~jobs:rollout_jobs ~map:rollout_map agent
          (Array.map (fun ((s : sample), _) -> s.s_ids) picks)
      in
      Array.mapi
        (fun i (s, d) ->
          let pi, v = outs.(i) in
          let taken = Agent.sample_with agent ~pi d in
          let r = reward s.s_id taken.Agent.act in
          { t_sample = s; t_taken = taken; t_value = v; t_reward = r })
        picks
    in
    steps_done := !steps_done + n;
    (* ---- PPO epochs ---- *)
    let clip_now = !clip in
    let poison =
      sentinel.Sentinel.inject_nan ~update:(!update + 1)
        ~rollbacks:!rollbacks
    in
    let poisoned = ref false in
    let loss_acc = ref 0.0 and loss_count = ref 0 in
    let ent_acc = ref 0.0 in
    let kl_acc = ref 0.0 in
    for _epoch = 1 to hyper.epochs do
      Nn.Rng.shuffle rng batch;
      let i = ref 0 in
      while !i < n do
        let mb_end = min n (!i + hyper.minibatch) in
        let mb_size = mb_end - !i in
        Agent.zero_grad agent;
        let idss =
          Array.init mb_size (fun k -> batch.(!i + k).t_sample.s_ids)
        in
        let outs = Agent.forward_chunk agent idss in
        let dpi = Array.make mb_size [||] and dv = Array.make mb_size 0.0 in
        for k = 0 to mb_size - 1 do
          let tr = batch.(!i + k) in
          let pi, v = outs.(k) in
          let lp = Agent.logp agent ~pi tr.t_taken in
          let ratio = exp (lp -. tr.t_taken.Agent.logp) in
          let adv = tr.t_reward -. tr.t_value in
          let unclipped_active =
            if adv >= 0.0 then ratio < 1.0 +. clip_now
            else ratio > 1.0 -. clip_now
          in
          (* dL/dlogp for L = -min(r A, clip(r) A) *)
          let dlogp = if unclipped_active then -.(ratio *. adv) else 0.0 in
          dpi.(k) <-
            Agent.dpi_of agent ~pi tr.t_taken ~dlogp_coef:dlogp
              ~dent_coef:(-.hyper.ent_coef);
          dv.(k) <- hyper.vf_coef *. (v -. tr.t_reward);
          (* bookkeeping *)
          let surr =
            let clipped =
              max (1.0 -. clip_now) (min (1.0 +. clip_now) ratio)
            in
            min (ratio *. adv) (clipped *. adv)
          in
          let ent = Agent.entropy agent ~pi in
          loss_acc :=
            !loss_acc
            +. (-.surr)
            +. (hyper.vf_coef *. 0.5 *. ((v -. tr.t_reward) ** 2.0))
            -. (hyper.ent_coef *. ent);
          ent_acc := !ent_acc +. ent;
          (* approx-KL between the rollout policy and the current one,
             the standard E[logp_old - logp_new] estimator *)
          kl_acc := !kl_acc +. (tr.t_taken.Agent.logp -. lp);
          incr loss_count
        done;
        Agent.backward_chunk agent idss ~dpi ~dv;
        if poison && not !poisoned then begin
          (* the injected numeric fault: one gradient cell goes NaN just
             before the optimizer step, exactly how a real bad update
             poisons the moments and then every weight *)
          poisoned := true;
          match Agent.params agent with
          | (_, g) :: _ when Array.length g > 0 -> g.(0) <- Float.nan
          | _ -> ()
        end;
        Nn.Optim.step ~scale:(float_of_int mb_size) !opt
          (Agent.params agent);
        i := mb_end
      done
    done;
    incr update;
    let reward_mean =
      Array.fold_left (fun acc tr -> acc +. tr.t_reward) 0.0 batch
      /. float_of_int n
    in
    let st =
      { update = !update; steps = !steps_done; reward_mean;
        loss = !loss_acc /. float_of_int (max 1 !loss_count);
        entropy_mean = !ent_acc /. float_of_int (max 1 !loss_count) }
    in
    let approx_kl = !kl_acc /. float_of_int (max 1 !loss_count) in
    (* ---- sentinels: admit the update only if it is healthy ---- *)
    match
      Sentinel.check sentinel ~params:(Agent.params agent) ~optim:!opt
        ~loss:st.loss ~entropy:st.entropy_mean ~reward_mean:st.reward_mean
        ~approx_kl
    with
    | Some trip -> rollback trip
    | None -> (
        progress st;
        history := st :: !history;
        take_snapshot ();
        if
          checkpoint_every > 0
          && !steps_done - !last_checkpoint >= checkpoint_every
          && !steps_done < total_steps
        then
          try save_checkpoint () with
          | Fsio.Disk_fault _ ->
              (* fail closed: the previous checkpoint is intact; the
                 next boundary retries with a fresh attempt index *)
              Counter.incr Fsio.write_errors
          | Checkpoint.Bad_checkpoint _ ->
              (* the post-save health check refuted a state the in-loop
                 sentinels passed: treat it as a trip *)
              rollback (Sentinel.Non_finite "checkpoint health check"))
  done;
  (* the final checkpoint must land: retry through transient disk
     faults, then let the typed error escape *)
  let rec final_save attempt =
    try save_checkpoint ()
    with Fsio.Disk_fault _ when attempt < 4 ->
      Counter.incr Fsio.write_errors;
      final_save (attempt + 1)
  in
  final_save 0;
  List.rev !history

(** Greedy evaluation: mean reward of the deterministic policy over
    [samples], one batched forward for the whole corpus. *)
let evaluate (agent : Agent.t) ~(samples : sample array)
    ~(reward : int -> Spaces.action -> float) : float =
  let acts =
    Agent.predict_batch agent (Array.map (fun s -> s.s_ids) samples)
  in
  let total = ref 0.0 in
  Array.iteri
    (fun i s -> total := !total +. reward s.s_id acts.(i))
    samples;
  !total /. float_of_int (max 1 (Array.length samples))
