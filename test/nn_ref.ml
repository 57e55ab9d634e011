(* The per-sample reference forward of the network: one snippet at a
   time, a fresh boxed vector per step, every sum in the plain loop order.
   The batched kernels must reproduce it bit for bit (the batched.*
   suites), so it states the arithmetic the library's row kernels keep. *)

let dot (a : float array) (b : float array) : float =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* y = W x + b: one accumulator per output, then the bias *)
let dense (l : Nn.Dense.t) (x : float array) : float array =
  let cols = l.Nn.Dense.in_dim and w = l.Nn.Dense.w.Nn.Tensor.data in
  Array.init l.Nn.Dense.out_dim (fun o ->
      dot (Array.sub w (o * cols) cols) x +. l.Nn.Dense.b.(o))

(* the activation after every layer but the last *)
let mlp (t : Nn.Mlp.t) (x : float array) : float array =
  let act =
    match t.Nn.Mlp.act with
    | Nn.Mlp.Tanh -> Array.map tanh
    | Nn.Mlp.Relu -> Array.map (fun x -> if x > 0.0 then x else 0.0)
    | Nn.Mlp.Linear -> Fun.id
  in
  let rec go x = function
    | [] -> x
    | [ l ] -> dense l x
    | l :: rest -> go (act (dense l x)) rest
  in
  go x t.Nn.Mlp.layers

(* code2vec: the clamped contexts (or the pad of an empty snippet), one
   tanh row each, softmax attention (or uniform weights), the weighted
   sum; returns (code, attention weights) *)
let code (m : Embedding.Code2vec.t) (ids : Embedding.Code2vec.ids array) :
    float array * float array =
  let open Embedding.Code2vec in
  let open Nn.Tensor in
  let ids =
    if ids = [||] then [| { li = 0; pi = 0; ri = 0 } |]
    else Array.sub ids 0 (min (Array.length ids) m.cfg.max_contexts)
  in
  let row (t : Nn.Tensor.mat) i = Array.sub t.data (i * t.cols) t.cols in
  let x { li; pi; ri } = Array.concat [ row m.tok li; row m.path pi; row m.tok ri ] in
  let hs = Array.map (fun c -> Array.map tanh (dense m.combine (x c))) ids in
  let n = Array.length hs in
  let alphas =
    if m.cfg.use_attention then softmax (Array.map (fun h -> dot h m.attn) hs)
    else Array.make n (1.0 /. float_of_int n)
  in
  let code = Array.make m.cfg.d_code 0.0 in
  Array.iteri
    (fun c h ->
      Array.iteri (fun i v -> code.(i) <- code.(i) +. (alphas.(c) *. v)) h)
    hs;
  (code, alphas)

(* the agent: code -> trunk -> tanh -> (policy logits, value) *)
let agent (t : Rl.Agent.t) (ids : Embedding.Code2vec.ids array) :
    float array * float =
  let h = Array.map tanh (mlp t.Rl.Agent.trunk (fst (code t.Rl.Agent.c2v ids))) in
  (dense t.Rl.Agent.head_pi h, (dense t.Rl.Agent.head_v h).(0))

(* the greedy action of the reference logits: the first strict maximum
   of each factor's logits, or the rounded continuous outputs *)
let predict (t : Rl.Agent.t) (ids : Embedding.Code2vec.ids array) :
    Rl.Spaces.action =
  let pi, _ = agent t ids in
  let argmax off len =
    List.fold_left (fun b i -> if pi.(off + i) > pi.(off + b) then i else b)
      0 (List.init len Fun.id)
  in
  let open Rl.Spaces in
  match t.Rl.Agent.space with
  | Discrete -> { vf_idx = argmax 0 n_vf; if_idx = argmax n_vf n_if }
  | Continuous1 -> of_flat (int_of_float (Float.round pi.(0)))
  | Continuous2 ->
      { vf_idx = clamp_idx ~n:n_vf pi.(0); if_idx = clamp_idx ~n:n_if pi.(1) }
