(* Tests for action spaces, the agent's distributions, and PPO learning on
   synthetic bandits. *)

let mk_agent ?(space = Rl.Spaces.Discrete) seed =
  Rl.Agent.create ~space (Nn.Rng.create seed)

let some_ids = Train_pins.some_ids

(* ------------------------------------------------------------------ *)
(* Spaces                                                               *)
(* ------------------------------------------------------------------ *)

let test_spaces_grid () =
  Alcotest.(check int) "35 actions" 35 (List.length Rl.Spaces.all_actions);
  Alcotest.(check int) "n_flat" 35 Rl.Spaces.n_flat

let test_spaces_flat_roundtrip () =
  List.iter
    (fun a ->
      let a' = Rl.Spaces.of_flat (Rl.Spaces.flat_of a) in
      Alcotest.(check bool) "round trip" true (a = a'))
    Rl.Spaces.all_actions

let test_spaces_of_flat_clamps () =
  let a = Rl.Spaces.of_flat 9999 in
  Alcotest.(check int) "max vf idx" (Rl.Spaces.n_vf - 1) a.Rl.Spaces.vf_idx;
  let b = Rl.Spaces.of_flat (-5) in
  Alcotest.(check int) "min" 0 b.Rl.Spaces.vf_idx

let test_spaces_values_powers_of_two () =
  Array.iter
    (fun v -> Alcotest.(check bool) "pow2" true (v land (v - 1) = 0))
    Rl.Spaces.vf_values

(* ------------------------------------------------------------------ *)
(* Agent distributions                                                  *)
(* ------------------------------------------------------------------ *)

(* one snippet through the batched path: its policy logits, and its
   greedy action *)
let pi_of agent ids = fst (Rl.Agent.forward_batch agent [| ids |]).(0)

let predict1 agent ids = (Rl.Agent.predict_batch agent [| ids |]).(0)

let test_sample_logp_consistency () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 11 in
      let ids = some_ids agent in
      for _ = 1 to 20 do
        let pi = pi_of agent ids in
        let taken = Rl.Agent.sample_with agent ~pi (Rl.Agent.draw agent) in
        let lp = Rl.Agent.logp agent ~pi taken in
        if abs_float (lp -. taken.Rl.Agent.logp) > 1e-9 then
          Alcotest.failf "%s: logp mismatch %f vs %f"
            (Rl.Spaces.kind_to_string space)
            lp taken.Rl.Agent.logp
      done)
    [ Rl.Spaces.Discrete; Rl.Spaces.Continuous1; Rl.Spaces.Continuous2 ]

let test_predict_deterministic () =
  let agent = mk_agent 12 in
  let ids = some_ids agent in
  let a = predict1 agent ids in
  let b = predict1 agent ids in
  Alcotest.(check bool) "same action" true (a = b)

let test_entropy_positive () =
  let agent = mk_agent 13 in
  let pi = pi_of agent (some_ids agent) in
  Alcotest.(check bool) "entropy > 0" true (Rl.Agent.entropy agent ~pi > 0.0)

(* finite-difference check: d(logp)/d(logits) for the discrete head *)
let test_discrete_logp_gradient () =
  let agent = mk_agent 14 in
  let ids = some_ids agent in
  let pi0 = pi_of agent ids in
  let taken = Rl.Agent.sample_with agent ~pi:pi0 (Rl.Agent.draw agent) in
  let dpi =
    Rl.Agent.dpi_of agent ~pi:pi0 taken ~dlogp_coef:1.0 ~dent_coef:0.0
  in
  (* perturb a logit and recompute logp *)
  List.iter
    (fun k ->
      let pi = Array.copy pi0 in
      pi.(k) <- pi.(k) +. 1e-5;
      let lp_p = Rl.Agent.logp agent ~pi taken in
      pi.(k) <- pi.(k) -. 2e-5;
      let lp_m = Rl.Agent.logp agent ~pi taken in
      let numeric = (lp_p -. lp_m) /. 2e-5 in
      if abs_float (numeric -. dpi.(k)) > 1e-3 then
        Alcotest.failf "dlogits[%d]: numeric %f vs analytic %f" k numeric
          dpi.(k))
    [ 0; 3; 7; 9 ]

(* ------------------------------------------------------------------ *)
(* Batched inference: bit-identical to the per-sample reference         *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let all_spaces =
  [ Rl.Spaces.Discrete; Rl.Spaces.Continuous1; Rl.Spaces.Continuous2 ]

(* a small mixed corpus: distinct snippets, a duplicate, and an empty one *)
let corpus_ids agent =
  let ids_of src =
    let prog = Minic.Parser.parse_string src in
    Embedding.Code2vec.encode agent.Rl.Agent.c2v
      (Embedding.Ast_path.contexts_of_stmt
         (Neurovec.Extractor.embedding_stmt prog))
  in
  let s0 = some_ids agent in
  let s1 =
    ids_of
      "float x[64]; float y[64]; int kernel() { float s = 0; int i; for (i=0;i<64;i++) s += x[i]*y[i]; return (int) s; }"
  in
  let s2 =
    ids_of
      "int a[64]; int kernel() { int i; for (i=0;i<64;i++) if (a[i] > 3) a[i] = i; return a[0]; }"
  in
  [| s0; s1; [||]; s0; s2 |]

let check_forward_batch ~what agent idss batched =
  Alcotest.(check int) (what ^ ": result count") (Array.length idss)
    (Array.length batched);
  Array.iteri
    (fun i ids ->
      let pi, v = Nn_ref.agent agent ids in
      let bpi, bv = batched.(i) in
      if bits v <> bits bv then
        Alcotest.failf "%s: snippet %d value %h vs %h" what i v bv;
      Array.iteri
        (fun k s ->
          if bits s <> bits bpi.(k) then
            Alcotest.failf "%s: snippet %d logit %d: %h vs %h" what i k s
              bpi.(k))
        pi)
    idss

let pool_map f xs = Neurovec.Parpool.map ~jobs:4 f xs

let test_forward_batch_bitwise () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 41 in
      let idss = corpus_ids agent in
      let what s =
        Printf.sprintf "%s %s" (Rl.Spaces.kind_to_string space) s
      in
      check_forward_batch ~what:(what "jobs 1") agent idss
        (Rl.Agent.forward_batch agent idss);
      check_forward_batch ~what:(what "jobs 4 serial map") agent idss
        (Rl.Agent.forward_batch ~jobs:4 agent idss);
      check_forward_batch ~what:(what "jobs 4 pool") agent idss
        (Rl.Agent.forward_batch ~jobs:4 ~map:pool_map agent idss))
    all_spaces

let test_predict_batch_matches () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 42 in
      let idss = corpus_ids agent in
      let expect = Array.map (Nn_ref.predict agent) idss in
      List.iter
        (fun (what, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" (Rl.Spaces.kind_to_string space) what)
            true (expect = got))
        [
          ("jobs 1", Rl.Agent.predict_batch agent idss);
          ("jobs 3 serial map", Rl.Agent.predict_batch ~jobs:3 agent idss);
          ( "jobs 4 pool",
            Rl.Agent.predict_batch ~jobs:4 ~map:pool_map agent idss );
        ])
    all_spaces

(* ------------------------------------------------------------------ *)
(* Context rows cached per model                                        *)
(* ------------------------------------------------------------------ *)

(* the serve workload's stream of new programs (Loopgen from seed 13,
   programs that need bindings skipped), every loop site encoded, eight
   programs to a batch as a daemon's take would group them.  Encoding
   depends only on the default code2vec config, which every agent here
   shares *)
let serve_stream_batches : Embedding.Code2vec.ids array array array Lazy.t =
  lazy
    (let agent = mk_agent 9 in
     let gen = Nn.Rng.create 13 in
     let rec fresh i =
       let p = Dataset.Loopgen.generate_one gen i in
       if p.Dataset.Program.p_bindings <> [] then fresh i else p
     in
     let sites p =
       let ast = (Neurovec.Frontend.checked p).Neurovec.Frontend.a_ast in
       List.map
         (Neurovec.Framework.encode_site agent)
         (Neurovec.Extractor.extract ast)
     in
     let programs = List.init 1000 fresh in
     let rec group acc = function
       | [] -> List.rev acc
       | ps ->
           let take = List.filteri (fun i _ -> i < 8) ps in
           let rest = List.filteri (fun i _ -> i >= 8) ps in
           group (Array.of_list (List.concat_map sites take) :: acc) rest
     in
     Array.of_list (group [] programs))

let c2v_rows () =
  List.find (fun c -> c.Memo.name = "c2v-rows") (Memo.all ())

(* the code rows of one batch, as bits *)
let code_bits ?model agent ids =
  let c2v = agent.Rl.Agent.c2v in
  let d = c2v.Embedding.Code2vec.cfg.Embedding.Code2vec.d_code in
  let codes =
    Embedding.Code2vec.forward_batch ?model c2v (Nn.Batch.domain_arena ()) ids
  in
  Array.init (Array.length ids * d) (fun i -> bits (Nn.Batch.get codes i))

(* batch [i] through [predict_batch ~model] and the keyed embedding:
   actions and code bits equal the uncached call's *)
let check_keyed_batch ~what agent ~expect i ids =
  let model = Serve.Server.model_fingerprint agent in
  let acts, codes = expect.(i) in
  if Rl.Agent.predict_batch ~model agent ids <> acts then
    Alcotest.failf "%s: batch %d actions differ" what i;
  if code_bits ~model agent ids <> codes then
    Alcotest.failf "%s: batch %d code bits differ" what i

let check_keyed ~what agent ~expect =
  Array.iteri (check_keyed_batch ~what agent ~expect)
    (Lazy.force serve_stream_batches)

let uncached agent =
  Array.map
    (fun ids -> (Rl.Agent.predict_batch agent ids, code_bits agent ids))
    (Lazy.force serve_stream_batches)

let test_model_key_matches_uncached () =
  Memo.clear_all ();
  let agent = mk_agent 9 in
  let lookups () = (c2v_rows ()).Memo.hits + (c2v_rows ()).Memo.misses in
  let before = lookups () in
  let expect = uncached agent in
  Alcotest.(check int) "uncached calls look up no row" before (lookups ());
  check_keyed ~what:"cold table" agent ~expect;
  let cold = c2v_rows () in
  check_keyed ~what:"warm table" agent ~expect;
  let warm = c2v_rows () in
  Alcotest.(check bool) "rows computed" true (cold.Memo.misses > 0);
  Alcotest.(check bool) "rows reused within the stream" true
    (cold.Memo.hits > 0);
  Alcotest.(check int) "a warm pass computes nothing" cold.Memo.misses
    warm.Memo.misses

let test_model_key_capacity_one () =
  let saved = (c2v_rows ()).Memo.cap in
  Fun.protect
    ~finally:(fun () ->
      Memo.set_capacity "c2v-rows" saved;
      Memo.clear_all ())
    (fun () ->
      Memo.clear_all ();
      let agent = mk_agent 9 in
      let expect = uncached agent in
      Memo.set_capacity "c2v-rows" 1;
      check_keyed ~what:"capacity 1" agent ~expect;
      Alcotest.(check bool) "rows evicted" true
        ((c2v_rows ()).Memo.evictions > 0);
      Alcotest.(check bool) "one row kept" true ((c2v_rows ()).Memo.size <= 1))

let test_model_key_racing_domains () =
  Memo.clear_all ();
  let agent = mk_agent 9 in
  let expect = uncached agent in
  ignore (Lazy.force serve_stream_batches);
  (* both domains walk the stream in the same order from a cold table,
     so they race on the same missing rows *)
  let racer () =
    Domain.spawn (fun () ->
        check_keyed ~what:"racing domain" agent ~expect)
  in
  let d1 = racer () and d2 = racer () in
  Domain.join d1;
  Domain.join d2

let test_two_models_interleaved () =
  Memo.clear_all ();
  let a = mk_agent 9 and b = mk_agent 10 in
  let ea = uncached a and eb = uncached b in
  Alcotest.(check bool) "the two models differ" true (ea <> eb);
  Array.iteri
    (fun i ids ->
      check_keyed_batch ~what:"model a" a ~expect:ea i ids;
      check_keyed_batch ~what:"model b" b ~expect:eb i ids)
    (Lazy.force serve_stream_batches)

(* A warm one-snippet [predict_batch ~model] copies its cached context
   rows into the batch without boxing a float: a boxed copy allocates two
   words per float, 128 per context row, which a snippet's dozens of
   contexts put far past the bound. *)
let test_model_key_warm_allocation () =
  Memo.clear_all ();
  let agent = mk_agent 9 in
  let model = Serve.Server.model_fingerprint agent in
  let ids = [| (Lazy.force serve_stream_batches).(0).(0) |] in
  ignore (Rl.Agent.predict_batch ~model agent ids);
  let w0 = Gc.minor_words () in
  ignore (Rl.Agent.predict_batch ~model agent ids);
  let words = Gc.minor_words () -. w0 in
  Printf.printf "warm one-snippet predict_batch ~model: %.0f minor words\n" words;
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words, under 2,000" words) true
    (words < 2000.)

(* the batched rollout order — draw the randomness first, forward the
   whole batch, then apply each draw — must reproduce a per-sample
   forward followed by its draw exactly: same action, raw sample, logp,
   and RNG state *)
let test_draw_sample_with_equiv () =
  List.iter
    (fun space ->
      let a = mk_agent ~space 43 and b = mk_agent ~space 43 in
      let ids = some_ids a in
      for step = 1 to 10 do
        let pa, _ = Nn_ref.agent a ids in
        let ta = Rl.Agent.sample_with a ~pi:pa (Rl.Agent.draw a) in
        let d = Rl.Agent.draw b in
        let bpi, _ = (Rl.Agent.forward_batch b [| ids |]).(0) in
        let tb = Rl.Agent.sample_with b ~pi:bpi d in
        let what s =
          Printf.sprintf "%s step %d %s" (Rl.Spaces.kind_to_string space)
            step s
        in
        Alcotest.(check bool) (what "action") true
          (ta.Rl.Agent.act = tb.Rl.Agent.act);
        Alcotest.(check int64) (what "logp") (bits ta.Rl.Agent.logp)
          (bits tb.Rl.Agent.logp);
        Alcotest.(check bool) (what "raw") true
          (Array.map bits ta.Rl.Agent.raw = Array.map bits tb.Rl.Agent.raw)
      done;
      (* both streams consumed the same number of draws *)
      Alcotest.(check (float 0.0)) "rng in lockstep"
        (Nn.Rng.float a.Rl.Agent.rng)
        (Nn.Rng.float b.Rl.Agent.rng))
    all_spaces

(* ------------------------------------------------------------------ *)
(* PPO on synthetic bandits                                             *)
(* ------------------------------------------------------------------ *)

(* one context, one rewarded action: PPO must find it *)
let test_ppo_learns_fixed_target () =
  let agent = mk_agent 15 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let target = { Rl.Spaces.vf_idx = 3; if_idx = 1 } in
  let reward _ (a : Rl.Spaces.action) =
    if a = target then 1.0 else if a.Rl.Spaces.vf_idx = 3 then 0.3 else 0.0
  in
  ignore
    (Rl.Ppo.train
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64; lr = 3e-3 }
       agent ~samples ~reward ~total_steps:1500);
  let predicted = predict1 agent samples.(0).Rl.Ppo.s_ids in
  Alcotest.(check bool) "found the rewarded action" true (predicted = target)

(* two distinguishable contexts with different optimal actions *)
let test_ppo_distinguishes_contexts () =
  let agent = mk_agent 16 in
  let ids_of src =
    let prog = Minic.Parser.parse_string src in
    Embedding.Code2vec.encode agent.Rl.Agent.c2v
      (Embedding.Ast_path.contexts_of_stmt
         (Neurovec.Extractor.embedding_stmt prog))
  in
  let s0 =
    ids_of "int a[64]; int kernel() { int i; for (i=0;i<64;i++) a[i] = i; return a[0]; }"
  in
  let s1 =
    ids_of
      "float x[64]; float y[64]; int kernel() { float s = 0; int i; for (i=0;i<64;i++) s += x[i]*y[i]; return (int) s; }"
  in
  let samples =
    [| { Rl.Ppo.s_id = 0; s_ids = s0 }; { Rl.Ppo.s_id = 1; s_ids = s1 } |]
  in
  let reward id (a : Rl.Spaces.action) =
    match id with
    | 0 -> if a.Rl.Spaces.vf_idx = 1 then 1.0 else 0.0
    | _ -> if a.Rl.Spaces.vf_idx = 5 then 1.0 else 0.0
  in
  ignore
    (Rl.Ppo.train
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 128; lr = 3e-3 }
       agent ~samples ~reward ~total_steps:4000);
  let p0 = predict1 agent s0 and p1 = predict1 agent s1 in
  Alcotest.(check int) "context 0 -> vf idx 1" 1 p0.Rl.Spaces.vf_idx;
  Alcotest.(check int) "context 1 -> vf idx 5" 5 p1.Rl.Spaces.vf_idx

let test_ppo_reward_improves () =
  let agent = mk_agent 17 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let reward _ (a : Rl.Spaces.action) =
    float_of_int a.Rl.Spaces.vf_idx /. 6.0
  in
  let hist =
    Rl.Ppo.train
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64; lr = 3e-3 }
      agent ~samples ~reward ~total_steps:1280
  in
  let first = (List.hd hist).Rl.Ppo.reward_mean in
  let last = (List.hd (List.rev hist)).Rl.Ppo.reward_mean in
  Alcotest.(check bool)
    (Printf.sprintf "improves (%.3f -> %.3f)" first last)
    true (last > first)

let test_ppo_stats_shape () =
  let agent = mk_agent 18 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let hist =
    Rl.Ppo.train
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50 }
      agent ~samples
      ~reward:(fun _ _ -> 0.5)
      ~total_steps:150
  in
  Alcotest.(check int) "three updates" 3 (List.length hist);
  List.iteri
    (fun i st ->
      Alcotest.(check int) "update number" (i + 1) st.Rl.Ppo.update;
      Alcotest.(check (float 1e-9)) "constant reward" 0.5 st.Rl.Ppo.reward_mean)
    hist

(* batched rollout collection must be invisible: the pinned training
   bits whether the rollout forward runs serially or sharded across the
   pool *)
let test_ppo_batched_rollouts_identical () =
  let serial_map f xs = Array.map f xs in
  List.iter
    (fun space ->
      List.iter
        (fun (what, rollout_jobs, rollout_map) ->
          let agent, hist =
            Train_pins.ppo_run ~rollout_jobs ~rollout_map space
          in
          Train_pins.check
            ~what:
              (Printf.sprintf "%s %s" (Rl.Spaces.kind_to_string space) what)
            ~pin:(Train_pins.ppo_pin ~use_attention:true space)
            (Train_pins.digest agent hist))
        [ ("jobs 1", 1, serial_map); ("jobs 4 pool", 4, pool_map) ])
    all_spaces

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let agent = mk_agent 19 in
  let ids = some_ids agent in
  let before = predict1 agent ids in
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rl.Checkpoint.save agent path;
      let loaded = Rl.Checkpoint.load path in
      let after = predict1 loaded ids in
      Alcotest.(check bool) "same prediction" true (before = after))

let test_checkpoint_rejects_garbage () =
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_value oc ("something-else", 9);
      close_out oc;
      match Rl.Checkpoint.load path with
      | exception Rl.Checkpoint.Bad_checkpoint _ -> ()
      | _ -> Alcotest.fail "expected Bad_checkpoint")

(* ---- corruption matrix ---- *)

let with_temp f =
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_bad ~msg path =
  match Rl.Checkpoint.load path with
  | exception Rl.Checkpoint.Bad_checkpoint m ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" m msg)
        true (contains ~sub:msg m)
  | _ -> Alcotest.fail "expected Bad_checkpoint"

let test_checkpoint_state_roundtrip () =
  let agent = mk_agent 20 in
  let st =
    { Rl.Train_state.ts_steps = 250; ts_update = 5;
      ts_history =
        [ { Rl.Train_state.update = 5; steps = 250; reward_mean = 0.25;
            loss = 0.5; entropy_mean = 1.2 } ];
      ts_optim = Nn.Optim.adam ~lr:1e-3 (); ts_rollbacks = 0 }
  in
  with_temp (fun path ->
      Rl.Checkpoint.save ~state:st agent path;
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      match Rl.Checkpoint.load_full path with
      | _, None -> Alcotest.fail "state lost"
      | _, Some st' ->
          Alcotest.(check int) "steps" 250 st'.Rl.Train_state.ts_steps;
          Alcotest.(check int) "update" 5 st'.Rl.Train_state.ts_update;
          Alcotest.(check int) "history" 1
            (List.length st'.Rl.Train_state.ts_history))

let test_checkpoint_v1_compat () =
  let agent = mk_agent 21 in
  let ids = some_ids agent in
  let before = predict1 agent ids in
  with_temp (fun path ->
      (* a v1 file: header + bare agent, no CRC footer *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 1);
      output_value oc agent;
      close_out oc;
      let loaded, state = Rl.Checkpoint.load_full path in
      Alcotest.(check bool) "no state in v1" true (state = None);
      Alcotest.(check bool) "same prediction" true
        (predict1 loaded ids = before))

let test_checkpoint_truncated_header () =
  with_temp (fun path ->
      write_file path "neu";
      expect_bad ~msg:"not an agent checkpoint" path)

let test_checkpoint_truncated_body () =
  with_temp (fun path ->
      (* valid header, then nothing *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 2);
      close_out oc;
      expect_bad ~msg:"truncated or corrupt body" path;
      (* v1 header with no agent behind it *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 1);
      close_out oc;
      expect_bad ~msg:"truncated or corrupt v1 body" path;
      (* a real checkpoint chopped mid-body *)
      Rl.Checkpoint.save (mk_agent 22) path;
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes / 2));
      match Rl.Checkpoint.load path with
      | exception Rl.Checkpoint.Bad_checkpoint _ -> ()
      | _ -> Alcotest.fail "expected Bad_checkpoint")

let test_checkpoint_flipped_byte () =
  with_temp (fun path ->
      Rl.Checkpoint.save (mk_agent 23) path;
      let bytes = Bytes.of_string (read_file path) in
      (* flip one bit deep inside the payload: the marshal framing stays
         intact, so only the CRC can catch it *)
      let i = Bytes.length bytes / 2 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      write_file path (Bytes.to_string bytes);
      expect_bad ~msg:"CRC32" path)

let test_checkpoint_unsupported_version () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 99);
      close_out oc;
      expect_bad ~msg:"unsupported" path)

(* ---- kill-and-resume ---- *)

(* training 300 steps straight and training 100 steps, checkpointing,
   then resuming to 300 in a fresh process state must produce the same
   policy and the same statistics history *)
let test_ppo_resume_equivalence () =
  let hyper = { Rl.Ppo.default_hyper with batch_size = 50; lr = 3e-3 } in
  let reward _ (a : Rl.Spaces.action) =
    if a.Rl.Spaces.vf_idx = 3 then 1.0 else 0.1 *. float_of_int a.Rl.Spaces.if_idx
  in
  (* straight run *)
  let agent_a = mk_agent 24 in
  let ids_a = some_ids agent_a in
  let samples_a = [| { Rl.Ppo.s_id = 0; s_ids = ids_a } |] in
  let hist_a =
    Rl.Ppo.train ~hyper agent_a ~samples:samples_a ~reward ~total_steps:300
  in
  (* interrupted run: stop at 100, checkpoint, reload, continue to 300 *)
  with_temp (fun path ->
      let agent_b = mk_agent 24 in
      let samples_b = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent_b } |] in
      ignore
        (Rl.Ppo.train ~hyper ~checkpoint_path:path agent_b ~samples:samples_b
           ~reward ~total_steps:100);
      let agent_c, state = Rl.Checkpoint.load_full path in
      let st =
        match state with
        | Some st -> st
        | None -> Alcotest.fail "checkpoint carries no training state"
      in
      Alcotest.(check int) "checkpointed at 100 steps" 100
        st.Rl.Train_state.ts_steps;
      let samples_c = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent_c } |] in
      let hist_c =
        Rl.Ppo.train ~hyper ~resume:st agent_c ~samples:samples_c ~reward
          ~total_steps:300
      in
      Alcotest.(check int) "same number of updates" (List.length hist_a)
        (List.length hist_c);
      List.iter2
        (fun (a : Rl.Ppo.stats) (c : Rl.Ppo.stats) ->
          Alcotest.(check int) "update" a.Rl.Ppo.update c.Rl.Ppo.update;
          Alcotest.(check int) "steps" a.Rl.Ppo.steps c.Rl.Ppo.steps;
          Alcotest.(check (float 0.0)) "reward mean" a.Rl.Ppo.reward_mean
            c.Rl.Ppo.reward_mean;
          Alcotest.(check (float 0.0)) "loss" a.Rl.Ppo.loss c.Rl.Ppo.loss)
        hist_a hist_c;
      Alcotest.(check bool) "same final greedy policy" true
        (predict1 agent_a ids_a
        = predict1 agent_c samples_c.(0).Rl.Ppo.s_ids))

(* periodic checkpoints actually appear during training, not only at the
   end *)
let test_ppo_periodic_checkpoints () =
  with_temp (fun path ->
      let agent = mk_agent 25 in
      let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
      let seen = ref 0 in
      ignore
        (Rl.Ppo.train
           ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50 }
           ~progress:(fun st ->
             if st.Rl.Ppo.steps < 300 && Sys.file_exists path then incr seen)
           ~checkpoint_path:path ~checkpoint_every:50 agent ~samples
           ~reward:(fun _ _ -> 0.5)
           ~total_steps:300);
      Alcotest.(check bool)
        (Printf.sprintf "mid-run checkpoints observed (%d)" !seen)
        true (!seen >= 1);
      Alcotest.(check bool) "final checkpoint loads" true
        (match Rl.Checkpoint.load_full path with
        | _, Some st -> st.Rl.Train_state.ts_steps = 300
        | _ -> false))

let suite =
  [
    ( "rl.spaces",
      [
        Alcotest.test_case "35-point grid" `Quick test_spaces_grid;
        Alcotest.test_case "flat round trip" `Quick test_spaces_flat_roundtrip;
        Alcotest.test_case "of_flat clamps" `Quick test_spaces_of_flat_clamps;
        Alcotest.test_case "powers of two" `Quick
          test_spaces_values_powers_of_two;
      ] );
    ( "rl.agent",
      [
        Alcotest.test_case "sample/logp consistency" `Quick
          test_sample_logp_consistency;
        Alcotest.test_case "predict deterministic" `Quick
          test_predict_deterministic;
        Alcotest.test_case "entropy positive" `Quick test_entropy_positive;
        Alcotest.test_case "discrete logp gradient" `Quick
          test_discrete_logp_gradient;
      ] );
    ( "rl.checkpoint",
      [
        Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick
          test_checkpoint_rejects_garbage;
        Alcotest.test_case "state round trip" `Quick
          test_checkpoint_state_roundtrip;
        Alcotest.test_case "loads v1 files" `Quick test_checkpoint_v1_compat;
        Alcotest.test_case "truncated header" `Quick
          test_checkpoint_truncated_header;
        Alcotest.test_case "truncated body" `Quick
          test_checkpoint_truncated_body;
        Alcotest.test_case "flipped byte fails CRC" `Quick
          test_checkpoint_flipped_byte;
        Alcotest.test_case "unsupported version" `Quick
          test_checkpoint_unsupported_version;
      ] );
    ( "rl.ppo",
      [
        Alcotest.test_case "learns fixed target" `Slow
          test_ppo_learns_fixed_target;
        Alcotest.test_case "distinguishes contexts" `Slow
          test_ppo_distinguishes_contexts;
        Alcotest.test_case "reward improves" `Quick test_ppo_reward_improves;
        Alcotest.test_case "stats bookkeeping" `Quick test_ppo_stats_shape;
        Alcotest.test_case "kill-and-resume equivalence" `Quick
          test_ppo_resume_equivalence;
        Alcotest.test_case "periodic checkpoints" `Quick
          test_ppo_periodic_checkpoints;
      ] );
    ( "batched.agent",
      [
        Alcotest.test_case "forward_batch bitwise" `Quick
          test_forward_batch_bitwise;
        Alcotest.test_case "predict_batch matches" `Quick
          test_predict_batch_matches;
        Alcotest.test_case "draw + sample_with = sample" `Quick
          test_draw_sample_with_equiv;
        Alcotest.test_case "model-keyed rows = uncached, 1,000 programs"
          `Quick test_model_key_matches_uncached;
        Alcotest.test_case "model-keyed rows at capacity 1" `Quick
          test_model_key_capacity_one;
        Alcotest.test_case "model-keyed rows from two racing domains" `Quick
          test_model_key_racing_domains;
        Alcotest.test_case "two models' rows interleaved" `Quick
          test_two_models_interleaved;
        Alcotest.test_case "warm model-keyed rows allocate little" `Quick
          test_model_key_warm_allocation;
      ] );
    ( "batched.ppo",
      [
        Alcotest.test_case "batched rollouts identical" `Slow
          test_ppo_batched_rollouts_identical;
      ] );
  ]
