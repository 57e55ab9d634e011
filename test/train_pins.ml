(* Pinned training runs.

   Each recipe trains a small agent and digests the result: the IEEE bits
   of every parameter and gradient array in [Agent.params] order, the
   agent's RNG state, and each update's reward mean, loss and entropy.
   The digest is an MD5 over those 64-bit words, not over [Marshal]
   bytes, so it does not depend on the OCaml version.  The pins were
   recorded when the recipes were added; a change to the network, the
   PPO update or the rollouts that moves one bit of training moves a pin.

   golden.train checks every pin at the ambient pool size
   ([NEUROVEC_JOBS]); batched.ppo and batched.checkpoint check them at
   fixed pool sizes. *)

let digest (agent : Rl.Agent.t) (hist : Rl.Ppo.stats list) : string =
  let b = Buffer.create (1 lsl 21) in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  List.iter
    (fun (p, g) ->
      Array.iter add p;
      Array.iter add g)
    (Rl.Agent.params agent);
  Buffer.add_int64_le b agent.Rl.Agent.rng.Nn.Rng.state;
  List.iter
    (fun (st : Rl.Ppo.stats) ->
      add st.Rl.Ppo.reward_mean;
      add st.Rl.Ppo.loss;
      add st.Rl.Ppo.entropy_mean)
    hist;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check ~what ~(pin : string) (actual : string) : unit =
  if actual <> pin then
    Alcotest.failf "%s: training digest %s, pinned %s" what actual pin

(* ---- PPO on two samples, one of them an empty snippet ---- *)

let serial_map f xs = Array.map f xs

let some_ids (agent : Rl.Agent.t) : Embedding.Code2vec.ids array =
  let prog =
    Minic.Parser.parse_string
      "int a[64]; int b[64]; int kernel() { int i; for (i=0;i<64;i++) a[i]=b[i]; return a[0]; }"
  in
  Embedding.Code2vec.encode agent.Rl.Agent.c2v
    (Embedding.Ast_path.contexts_of_stmt
       (Neurovec.Extractor.embedding_stmt prog))

(* deterministic and content-addressed: call order cannot matter *)
let ppo_reward id (a : Rl.Spaces.action) =
  float_of_int ((a.Rl.Spaces.vf_idx * 3) + a.Rl.Spaces.if_idx + id) /. 25.0

(* batch 50, 200 steps, lr 3e-3, agent seed 45; returns the trained agent
   and its statistics *)
let ppo_run ?(use_attention = true) ?(rollout_jobs = 1)
    ?(rollout_map = serial_map) (space : Rl.Spaces.kind) :
    Rl.Agent.t * Rl.Ppo.stats list =
  let c2v_cfg = { Embedding.Code2vec.default_config with use_attention } in
  let agent = Rl.Agent.create ~c2v_cfg ~space (Nn.Rng.create 45) in
  let samples =
    [|
      { Rl.Ppo.s_id = 0; s_ids = some_ids agent };
      { Rl.Ppo.s_id = 1; s_ids = [||] };
    |]
  in
  let hist =
    Rl.Ppo.train
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50; lr = 3e-3 }
      ~rollout_jobs ~rollout_map agent ~samples ~reward:ppo_reward
      ~total_steps:200
  in
  (agent, hist)

let ppo_pin ~(use_attention : bool) (space : Rl.Spaces.kind) : string =
  match (space, use_attention) with
  | Rl.Spaces.Discrete, true -> "21af91c9a9ae82ddec8726e75c4c8b9c"
  | Rl.Spaces.Continuous1, true -> "52e11297b41842715cbc33e60401531d"
  | Rl.Spaces.Continuous2, true -> "2057b5ef3b72bdbe84ab244c2192127c"
  | Rl.Spaces.Discrete, false -> "3d5a3d59dd3b478852398250da9f690e"
  | _ -> invalid_arg "Train_pins.ppo_pin: no pin for this recipe"

(* ---- Framework training on a Loopgen corpus ---- *)

let faults =
  Neurovec.Faults.create ~seed:7 ~compile:0.06 ~trap:0.05 ~fuel:0.04
    ~timeout:0.04 ~noise:0.08 ~tail:0.03 ()

let fault_options =
  { Neurovec.Pipeline.default_options with Neurovec.Pipeline.faults }

(* Loopgen seed 55, 16 programs, agent seed 3, batch 64, 192 steps, at
   the ambient pool size *)
let framework_run ~(options : Neurovec.Pipeline.options) :
    Rl.Agent.t * Rl.Ppo.stats list =
  Neurovec.Frontend.clear ();
  let corpus = Dataset.Loopgen.generate ~seed:55 16 in
  let fw = Neurovec.Framework.create ~options ~seed:3 corpus in
  let hist =
    Neurovec.Framework.train fw
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64 }
      ~total_steps:192
  in
  (fw.Neurovec.Framework.agent, hist)

let framework_faults_pin = "01cff3b2796203f86b34f636e4a9c3a0"

let framework_clean_pin = "8fa093705480fef75b5ddf9c64b6a912"
