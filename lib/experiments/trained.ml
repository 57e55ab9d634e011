(** The shared trained model used by Figures 7, 8 and 9: one agent trained
    once on the synthetic corpus (80/20 split), plus brute-force labels and
    the NNS / decision-tree predictors fitted on the learned embeddings —
    mirroring Section 3.5's recipe of reusing the end-to-end-trained
    embedding for the supervised methods. *)

type t = {
  agent : Rl.Agent.t;
  oracle : Neurovec.Reward.t;  (** over the training split *)
  train_set : Dataset.Program.t array;
  test_set : Dataset.Program.t array;
  nns : Agents.Nns.t;
  dtree : Agents.Dtree.tree;
}

(* the program's code vector: a one-row batch on this domain's arena *)
let code_vector (agent : Rl.Agent.t) (p : Dataset.Program.t) : float array =
  let c2v = agent.Rl.Agent.c2v in
  let codes =
    Embedding.Code2vec.forward_batch c2v (Nn.Batch.domain_arena ())
      [| Neurovec.Framework.encode agent p |]
  in
  Array.init c2v.Embedding.Code2vec.cfg.Embedding.Code2vec.d_code
    (Nn.Batch.get codes)

(** Train the shared model.  The size knobs default to the full-scale run
    of the figures (still scaled by [NEUROVEC_SCALE]); the golden snapshot
    tests pass tiny values to build a fast deterministic instance. *)
let build ?(seed = 5) ?(corpus_size = Common.scaled 800)
    ?(train_steps = Common.scaled 8000) ?(n_labeled = Common.scaled 250) () :
    t =
  let corpus = Dataset.Loopgen.generate ~seed corpus_size in
  let train_set, test_set = Dataset.Loopgen.train_test_split corpus in
  let fw = Neurovec.Framework.create ~seed:9 train_set in
  ignore
    (Neurovec.Framework.train fw
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 500 }
       ~total_steps:train_steps);
  (* brute-force labels on a labeled portion of the training split, fanned
     across the evaluation pool; a program the oracle quarantined
     contributes no label instead of aborting the build *)
  let n_labeled = min (Array.length train_set) n_labeled in
  let labeled =
    Common.guarded_map
      ~name:(fun i -> train_set.(i).Dataset.Program.p_name)
      (fun i ->
        let act, _ =
          Neurovec.Reward.brute_force fw.Neurovec.Framework.oracle i
        in
        ( code_vector fw.Neurovec.Framework.agent train_set.(i),
          Rl.Spaces.flat_of act ))
      (Array.init n_labeled Fun.id)
  in
  let xs = Array.of_list (List.map fst labeled) in
  let ys = Array.of_list (List.map snd labeled) in
  {
    agent = fw.Neurovec.Framework.agent;
    oracle = fw.Neurovec.Framework.oracle;
    train_set;
    test_set;
    nns = Agents.Nns.fit xs ys;
    dtree = Agents.Dtree.fit xs ys;
  }

let instance : t lazy_t = lazy (build ())

let get () = Lazy.force instance

(* ------------------------------------------------------------------ *)
(* Method evaluation on arbitrary programs                              *)
(* ------------------------------------------------------------------ *)

type method_ =
  | Baseline
  | Random
  | PollyM
  | NnsM
  | DtreeM
  | RlM
  | BruteForce
  | PollyRl

let method_name = function
  | Baseline -> "baseline"
  | Random -> "random"
  | PollyM -> "polly"
  | NnsM -> "NNS"
  | DtreeM -> "decision-tree"
  | RlM -> "RL"
  | BruteForce -> "brute-force"
  | PollyRl -> "polly+RL"

(** Execution seconds of [p] under a method.  The RL methods decide per
    innermost loop; random search, NNS and the decision tree pick one
    action for the whole program. *)
let seconds (t : t) (m : method_) (p : Dataset.Program.t) : float =
  let polly_opts =
    { Neurovec.Pipeline.default_options with Neurovec.Pipeline.polly = true }
  in
  let uniform (a : Rl.Spaces.action) =
    (Neurovec.Pipeline.run_with_pragma p ~vf:(Rl.Spaces.vf_of a)
       ~if_:(Rl.Spaces.if_of a))
      .Neurovec.Pipeline.exec_seconds
  in
  let predicted (predict : float array -> int) =
    uniform (Rl.Spaces.of_flat (predict (code_vector t.agent p)))
  in
  match m with
  | Baseline -> (Neurovec.Pipeline.run_baseline p).Neurovec.Pipeline.exec_seconds
  | PollyM ->
      (Neurovec.Pipeline.run_baseline ~options:polly_opts p)
        .Neurovec.Pipeline.exec_seconds
  | Random ->
      uniform
        (Agents.Random_search.pick
           (Nn.Rng.create (Hashtbl.hash p.Dataset.Program.p_name)))
  | NnsM -> predicted (Agents.Nns.predict t.nns)
  | DtreeM -> predicted (Agents.Dtree.predict t.dtree)
  | RlM ->
      let decisions = Neurovec.Framework.predict_decisions t.agent p in
      (Neurovec.Pipeline.run_with_decisions p ~decisions)
        .Neurovec.Pipeline.exec_seconds
  | BruteForce ->
      let oracle = Neurovec.Reward.create [| p |] in
      let act, _ = Neurovec.Reward.brute_force oracle 0 in
      Neurovec.Reward.exec_seconds oracle 0 act
  | PollyRl ->
      let decisions = Neurovec.Framework.predict_decisions t.agent p in
      (Neurovec.Pipeline.run_with_decisions ~options:polly_opts p ~decisions)
        .Neurovec.Pipeline.exec_seconds
