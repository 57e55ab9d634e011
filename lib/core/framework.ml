(** The end-to-end framework of Figure 3: programs -> loop extractor ->
    code embedding -> learning agent -> pragma injection -> compile &
    measure -> reward.

    [train] runs the PPO loop against the memoized reward oracle;
    [predict_decisions] runs the trained policy at inference (one forward
    pass per loop, like the deployed baseline cost model); [speedup_*]
    helpers express results the way the paper's figures do — execution
    time normalized to the baseline cost model. *)

type t = {
  agent : Rl.Agent.t;
  oracle : Reward.t;
  train_programs : Dataset.Program.t array;
  samples : Rl.Ppo.sample array;  (** quarantined programs excluded *)
  skipped : (string * string) list;
      (** programs quarantined at corpus intake: (name, reason) *)
}

(* AST path contexts of a statement, mapped to vocabulary ids *)
let encode_stmt (agent : Rl.Agent.t) (stmt : Minic.Ast.stmt) :
    Embedding.Code2vec.ids array =
  let cfg = agent.Rl.Agent.c2v.Embedding.Code2vec.cfg in
  Embedding.Code2vec.encode agent.Rl.Agent.c2v
    (Embedding.Ast_path.contexts_of_stmt
       ~max_contexts:cfg.Embedding.Code2vec.max_contexts stmt)

(** Encode a program for the agent: the first loop nest's outermost
    statement. *)
let encode (agent : Rl.Agent.t) (p : Dataset.Program.t) :
    Embedding.Code2vec.ids array =
  encode_stmt agent (Extractor.embedding_stmt (Frontend.checked p).Frontend.a_ast)

(** Encode one loop site (for multi-loop programs at inference). *)
let encode_site (agent : Rl.Agent.t) (site : Extractor.loop_site) :
    Embedding.Code2vec.ids array =
  encode_stmt agent site.Extractor.context

(** Build PPO samples for [programs], probing each program's baseline
    first: a program whose baseline cannot be measured (front-end failure,
    trap, fuel exhaustion, zero-cost loop) is quarantined by the oracle
    and dropped here instead of crashing the training loop hundreds of
    steps later.  Probes fan across the {!Parpool} domains (the baseline
    measurement and the embedding are both pure functions of the program);
    the fold back into samples/skipped runs in program order, so the
    result is identical at any pool size.  Returns the surviving samples
    (with [s_id] indexing into [programs]) and the dropped (name, reason)
    pairs. *)
let probe_samples ?(encode = encode) (agent : Rl.Agent.t) (oracle : Reward.t)
    (programs : Dataset.Program.t array) :
    Rl.Ppo.sample array * (string * string) list =
  let probed =
    Parpool.map
      (fun i ->
        try
          ignore (Reward.baseline oracle i);
          Ok { Rl.Ppo.s_id = i; s_ids = encode agent programs.(i) }
        with Reward.Quarantined (name, why) -> Error (name, why))
      (Array.init (Array.length programs) Fun.id)
  in
  let samples = ref [] and skipped = ref [] in
  Array.iter
    (function
      | Ok s -> samples := s :: !samples
      | Error nw -> skipped := nw :: !skipped)
    probed;
  (Array.of_list (List.rev !samples), List.rev !skipped)

(** [journal] attaches a write-ahead reward journal at that path {e before}
    the baseline probes run: an existing journal (e.g. from a killed run)
    is replayed first, so already-measured episodes are served from the
    restored tables, and every new commit is appended for the next
    resume.  The replayed-record count surfaces in {!Stats.report}. *)
let create ?agent ?(space = Rl.Spaces.Discrete) ?(hidden = [ 64; 64 ])
    ?(c2v_cfg = Embedding.Code2vec.default_config)
    ?(options = Pipeline.default_options) ?journal ~(seed : int)
    (train_programs : Dataset.Program.t array) : t =
  let agent =
    match agent with
    | Some a -> a  (* e.g. restored from a checkpoint for resumed training *)
    | None -> Rl.Agent.create ~hidden ~c2v_cfg ~space (Nn.Rng.create seed)
  in
  let oracle = Reward.create ~options train_programs in
  Option.iter
    (fun path ->
      ignore (Reward.replay_journal oracle path);
      Reward.set_journal oracle path)
    journal;
  let samples, skipped = probe_samples agent oracle train_programs in
  { agent; oracle; train_programs; samples; skipped }

(** The sentinel configuration implied by a fault spec: the backoff
    schedule is seeded by the spec seed, and the [nan_grad] knob becomes
    the gradient-poisoning hook ({!Faults.nan_grad_hit} — pure in
    (seed, update, rollbacks), so the injected trip and its recovery are
    identical at any pool size). *)
let sentinel_of_faults (spec : Faults.spec) : Rl.Sentinel.config =
  { Rl.Sentinel.default with
    Rl.Sentinel.backoff_seed = spec.Faults.f_seed;
    inject_nan =
      (fun ~update ~rollbacks -> Faults.nan_grad_hit spec ~update ~rollbacks);
  }

(** Train the agent; returns per-update statistics.  [checkpoint_path],
    [checkpoint_every], [keep_checkpoints], [sentinel], [resume] and
    [stop] behave as in {!Rl.Ppo.train} ([stop] is the graceful-shutdown
    hook — pass [Supervisor.shutdown_requested] to finish the in-flight
    update and flush the checkpoint + journal on SIGINT/SIGTERM). *)
let train ?(hyper = Rl.Ppo.default_hyper) ?progress ?checkpoint_path
    ?(checkpoint_every = 0) ?keep_checkpoints ?sentinel ?stop ?resume
    (t : t) ~(total_steps : int) : Rl.Ppo.stats list =
  Rl.Ppo.train ~hyper ?progress ?checkpoint_path ~checkpoint_every
    ?keep_checkpoints ?sentinel ?stop
    ~rollout_jobs:(Parpool.jobs ())
    ~rollout_map:(fun f xs -> Parpool.map f xs)
    ?resume t.agent ~samples:t.samples
    ~reward:(fun idx act -> Reward.reward t.oracle idx act)
    ~total_steps

(** Per-loop pragma decisions for a program under the trained policy:
    one batched forward over every loop site. *)
let predict_decisions (agent : Rl.Agent.t) (p : Dataset.Program.t) :
    (int * Minic.Ast.loop_pragma) list =
  let prog = (Frontend.checked p).Frontend.a_ast in
  let sites = Extractor.extract prog in
  let acts =
    Rl.Agent.predict_batch agent
      (Array.of_list (List.map (encode_site agent) sites))
  in
  List.mapi
    (fun i site ->
      let act = acts.(i) in
      ( site.Extractor.ordinal,
        Injector.pragma_of ~vf:(Rl.Spaces.vf_of act) ~if_:(Rl.Spaces.if_of act)
      ))
    sites
