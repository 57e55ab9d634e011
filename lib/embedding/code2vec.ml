(** The code2vec model: learned embeddings for path contexts, combined by a
    fully-connected layer and aggregated with soft attention into a single
    fixed-length code vector (Alon et al., POPL 2019 — the embedding
    generator the paper plugs in front of its RL agent).

    For a snippet with contexts {(l, p, r)}:

    {v x_c   = [E_tok[l]; E_path[p]; E_tok[r]]
       h_c   = tanh(W x_c + b)
       alpha = softmax_c (h_c . a)
       code  = sum_c alpha_c h_c v}

    The model trains end-to-end: the RL objective's gradient flows through
    the policy network into [code], and {!backward_batch} pushes it
    through the attention, the combiner, and the embedding tables. *)

type config = {
  d_token : int;
  d_path : int;
  d_code : int;  (** the paper's "340 features" — configurable *)
  vocab : Vocab.t;
  max_contexts : int;
  use_attention : bool;  (** false = mean pooling (ablation) *)
}

let default_config =
  { d_token = 32; d_path = 48; d_code = 128; vocab = Vocab.default;
    max_contexts = 24; use_attention = true }

type t = {
  cfg : config;
  tok : Nn.Tensor.mat;  (** n_tokens x d_token *)
  g_tok : Nn.Tensor.mat;
  path : Nn.Tensor.mat;  (** n_paths x d_path *)
  g_path : Nn.Tensor.mat;
  combine : Nn.Dense.t;  (** (2 d_token + d_path) -> d_code *)
  attn : Nn.Tensor.vec;  (** d_code *)
  g_attn : Nn.Tensor.vec;
}

let create ?(cfg = default_config) (rng : Nn.Rng.t) : t =
  {
    cfg;
    tok = Nn.Tensor.mat_xavier rng cfg.vocab.Vocab.n_tokens cfg.d_token;
    g_tok = Nn.Tensor.mat_create cfg.vocab.Vocab.n_tokens cfg.d_token;
    path = Nn.Tensor.mat_xavier rng cfg.vocab.Vocab.n_paths cfg.d_path;
    g_path = Nn.Tensor.mat_create cfg.vocab.Vocab.n_paths cfg.d_path;
    combine =
      Nn.Dense.create rng ~in_dim:((2 * cfg.d_token) + cfg.d_path)
        ~out_dim:cfg.d_code;
    attn = Array.init cfg.d_code (fun _ -> Nn.Rng.range rng ~lo:(-0.1) ~hi:0.1);
    g_attn = Nn.Tensor.vec_create cfg.d_code;
  }

type ids = { li : int; pi : int; ri : int }

(** Map contexts to vocabulary ids, the first [cfg.max_contexts] of them
    (the forward clamps ids handed in directly the same way). *)
let encode (t : t) (ctxs : Ast_path.context list) : ids array =
  let v = t.cfg.vocab and n = t.cfg.max_contexts in
  let ids =
    ctxs
    |> List.map (fun c ->
           { li = Vocab.token_id v c.Ast_path.left;
             pi = Vocab.path_id v c.Ast_path.path;
             ri = Vocab.token_id v c.Ast_path.right })
    |> Array.of_list
  in
  if Array.length ids <= n then ids else Array.sub ids 0 n

(* Context rows of loaded models: the [h = tanh(W x + b)] row of one
   (l, p, r) triple under one model, in the [c2v-rows] {!Memo} table.  A
   row is a pure function of the triple and the weights, so the caller's
   model key must name the weights (the serve daemon's model fingerprint
   does) and must never be passed for weights that still move.  Keys
   start with the packed triple, so the table's shard prefix spreads
   them.  A row is ~1 KB at the default [d_code]; the cap holds about
   twice the 4,326 distinct triples of the benchmark serve stream's
   first 4,000 programs, so a full table stays under ~10 MB. *)
let rows : float array Memo.t = Memo.create ~name:"c2v-rows" ~cap:8192

let row_key ~(model : string) (li : int) (pi : int) (ri : int) : string =
  let b = Bytes.create (12 + String.length model) in
  Bytes.set_int32_le b 0 (Int32.of_int li);
  Bytes.set_int32_le b 4 (Int32.of_int pi);
  Bytes.set_int32_le b 8 (Int32.of_int ri);
  Bytes.blit_string model 0 b 12 (String.length model);
  Bytes.unsafe_to_string b

(** The arena slot of {!forward_batch}'s code rows. *)
let codes_slot = "c2v.codes"

(** One batched forward over many snippets, on [arena] scratch (see
    {!Nn.Batch}): packs every (clamped, padded) context of the batch into
    one contiguous input matrix, computes each {e unique} (l, p, r)
    triple's [h = tanh(W x + b)] row exactly once — identical triples
    produce bit-identical rows, so the deduplication cannot change any
    result — then runs each snippet's attention softmax over its own
    segment of occurrences.  With [model] (a key naming [t]'s weights,
    which must not change under it), each unique row comes from the
    [c2v-rows] table, computed by the same one-row kernels on a miss.
    Returns the [n x d_code] row-major code matrix, an arena slot valid
    until the arena is reused.  Without [model], the activations
    {!backward_batch} reads stay in the arena too: the unique inputs and
    rows, the occurrence-to-row index, the per-occurrence attention
    weights and the per-snippet context counts. *)
let forward_batch ?(model : string option) (t : t) (arena : Nn.Batch.arena)
    (snippets : ids array array) : Nn.Batch.buf =
  let cfg = t.cfg in
  let d_tok = cfg.d_token and d_path = cfg.d_path and d_code = cfg.d_code in
  let in_dim = (2 * d_tok) + d_path in
  let n = Array.length snippets in
  let counts = Nn.Batch.int_slot arena "c2v.counts" n in
  let total = ref 0 in
  for s = 0 to n - 1 do
    let c = max 1 (min (Array.length snippets.(s)) cfg.max_contexts) in
    counts.(s) <- c;
    total := !total + c
  done;
  let total = !total in
  (* map every context occurrence to its unique-triple row *)
  let tbl = arena.Nn.Batch.table in
  Hashtbl.reset tbl;
  let uix = Nn.Batch.int_slot arena "c2v.uix" total in
  let ul = Nn.Batch.int_slot arena "c2v.ul" total in
  let up = Nn.Batch.int_slot arena "c2v.up" total in
  let ur = Nn.Batch.int_slot arena "c2v.ur" total in
  let n_tok = cfg.vocab.Vocab.n_tokens and n_path = cfg.vocab.Vocab.n_paths in
  let uniq = ref 0 and occ = ref 0 in
  for s = 0 to n - 1 do
    let ids = snippets.(s) in
    for c = 0 to counts.(s) - 1 do
      let { li; pi; ri } =
        if Array.length ids = 0 then { li = 0; pi = 0; ri = 0 } else ids.(c)
      in
      let key = (((li * n_path) + pi) * n_tok) + ri in
      let u =
        match Hashtbl.find_opt tbl key with
        | Some u -> u
        | None ->
            let u = !uniq in
            Hashtbl.add tbl key u;
            ul.(u) <- li;
            up.(u) <- pi;
            ur.(u) <- ri;
            incr uniq;
            u
      in
      uix.(!occ) <- u;
      incr occ
    done
  done;
  let uniq = !uniq in
  (* gather the [E_tok[l]; E_path[p]; E_tok[r]] input rows of unique
     triples [lo, hi) into [x] from row 0 *)
  let gather x ~lo ~hi =
    for u = lo to hi - 1 do
      let off = (u - lo) * in_dim in
      Nn.Batch.blit_mat_row ~src:t.tok ~row:ul.(u) ~dst:x ~dst_off:off;
      Nn.Batch.blit_mat_row ~src:t.path ~row:up.(u) ~dst:x
        ~dst_off:(off + d_tok);
      Nn.Batch.blit_mat_row ~src:t.tok ~row:ur.(u) ~dst:x
        ~dst_off:(off + d_tok + d_path)
    done
  in
  (* h_u = tanh(W x_u + b), once per unique triple *)
  let h = Nn.Batch.slot arena "c2v.h" (uniq * d_code) in
  (match model with
  | None ->
      let x = Nn.Batch.slot arena "c2v.x" (uniq * in_dim) in
      gather x ~lo:0 ~hi:uniq;
      Nn.Dense.forward_rows t.combine ~x ~y:h ~rows:uniq;
      Nn.Batch.tanh_inplace h ~len:(uniq * d_code)
  | Some model ->
      (* the same kernels on one row: dense rows are independent, so a
         row computed alone has the bits it has inside the batch *)
      let x1 = Nn.Batch.slot arena "c2v.x1" in_dim in
      let h1 = Nn.Batch.slot arena "c2v.h1" d_code in
      for u = 0 to uniq - 1 do
        let row =
          Memo.find_or_add rows (row_key ~model ul.(u) up.(u) ur.(u))
            (fun () ->
              gather x1 ~lo:u ~hi:(u + 1);
              Nn.Dense.forward_rows t.combine ~x:x1 ~y:h1 ~rows:1;
              Nn.Batch.tanh_inplace h1 ~len:d_code;
              let row = Array.make d_code 0.0 in
              for j = 0 to d_code - 1 do
                row.(j) <- Nn.Batch.get h1 j
              done;
              row)
        in
        (* a monomorphic loop, which boxes no float *)
        let off = u * d_code in
        for j = 0 to d_code - 1 do
          Nn.Batch.set h (off + j) row.(j)
        done
      done);
  (* per-snippet attention over its own segment of occurrences,
     accumulated into codes *)
  let codes = Nn.Batch.slot arena codes_slot (max 1 (n * d_code)) in
  let alpha = Nn.Batch.float_slot arena "c2v.alpha" total in
  let off = ref 0 in
  for s = 0 to n - 1 do
    let nc = counts.(s) and o = !off in
    (if cfg.use_attention then begin
       for c = o to o + nc - 1 do
         alpha.(c) <- Nn.Batch.dot_row h ~off:(uix.(c) * d_code) t.attn
       done;
       Nn.Batch.softmax_inplace alpha ~off:o ~n:nc
     end
     else
       let a = 1.0 /. float_of_int nc in
       for c = o to o + nc - 1 do
         alpha.(c) <- a
       done);
    let cbase = s * d_code in
    Nn.Batch.fill_zero_row codes ~off:cbase ~len:d_code;
    for c = o to o + nc - 1 do
      Nn.Batch.axpy_row ~alpha:alpha.(c) ~src:h ~src_off:(uix.(c) * d_code)
        ~dst:codes ~dst_off:cbase ~len:d_code
    done;
    off := o + nc
  done;
  codes

(** Row backward of the last {!forward_batch} (without [model]) on
    [arena] over the same [snippets]: pushes each snippet's dL/dcode row
    ([dcode], [n x d_code]) back through the attention, the combiner and
    the tables.  Every gradient cell sums its contributions in (snippet,
    context occurrence) order; an occurrence adds to its token rows left
    part first, then right.  The synthetic pad of an empty snippet trains
    the attention and the combiner but not the table rows its ids alias
    (vocab rows 0).  Under mean pooling the attention vector's gradient
    still takes its [0.0 *. h] terms. *)
let backward_batch (t : t) (arena : Nn.Batch.arena)
    (snippets : ids array array) ~(dcode : Nn.Batch.buf) : unit =
  let cfg = t.cfg in
  let d_tok = cfg.d_token and d_path = cfg.d_path and d_code = cfg.d_code in
  let in_dim = (2 * d_tok) + d_path in
  let n = Array.length snippets in
  let counts = Nn.Batch.int_slot arena "c2v.counts" n in
  let total = ref 0 in
  for s = 0 to n - 1 do
    total := !total + counts.(s)
  done;
  let total = !total in
  let uix = Nn.Batch.int_slot arena "c2v.uix" total in
  let alpha = Nn.Batch.float_slot arena "c2v.alpha" total in
  (* the unique rows: one past the largest index *)
  let uniq = ref 0 in
  for c = 0 to total - 1 do
    uniq := max !uniq (uix.(c) + 1)
  done;
  let uniq = !uniq in
  let h = Nn.Batch.slot arena "c2v.h" (uniq * d_code) in
  let x = Nn.Batch.slot arena "c2v.x" (uniq * in_dim) in
  (* attention and tanh backward, one dz row per occurrence:
     dh = alpha dcode + ds attn, dz = dh (1 - h²), g_attn += ds h *)
  let dz = Nn.Batch.slot arena "c2v.dz" (total * d_code) in
  let dalpha = Nn.Batch.float_slot arena "c2v.dalpha" total in
  let off = ref 0 in
  for s = 0 to n - 1 do
    let nc = counts.(s) and o = !off in
    let dc = Nn.Batch.row_to_vec dcode ~off:(s * d_code) ~len:d_code in
    let mean =
      if cfg.use_attention then begin
        for c = o to o + nc - 1 do
          dalpha.(c) <- Nn.Batch.dot_row h ~off:(uix.(c) * d_code) dc
        done;
        let m = ref 0.0 in
        for c = o to o + nc - 1 do
          m := !m +. (alpha.(c) *. dalpha.(c))
        done;
        !m
      end
      else 0.0
    in
    for c = o to o + nc - 1 do
      let a = alpha.(c) in
      let ds = if cfg.use_attention then a *. (dalpha.(c) -. mean) else 0.0 in
      let hbase = uix.(c) * d_code and zbase = c * d_code in
      for i = 0 to d_code - 1 do
        let hv = Nn.Batch.get h (hbase + i) in
        let dh = (0.0 +. (a *. dc.(i))) +. (ds *. t.attn.(i)) in
        t.g_attn.(i) <- t.g_attn.(i) +. (ds *. hv);
        Nn.Batch.set dz (zbase + i) (dh *. (1.0 -. (hv *. hv)))
      done
    done;
    off := o + nc
  done;
  (* the combiner over every occurrence, each reading its unique input *)
  let dx = Nn.Batch.slot arena "c2v.dx" (total * in_dim) in
  Nn.Dense.backward_rows t.combine ~x ~xix:uix ~dy:dz ~dx ~rows:total;
  (* split each dx row into its three table rows *)
  let ul = Nn.Batch.int_slot arena "c2v.ul" uniq in
  let up = Nn.Batch.int_slot arena "c2v.up" uniq in
  let ur = Nn.Batch.int_slot arena "c2v.ur" uniq in
  let off = ref 0 in
  for s = 0 to n - 1 do
    let nc = counts.(s) in
    if Array.length snippets.(s) > 0 then
      for c = !off to !off + nc - 1 do
        let u = uix.(c) and xb = c * in_dim in
        Nn.Batch.add_to_mat_row ~src:dx ~src_off:xb ~len:d_tok ~dst:t.g_tok
          ~row:ul.(u);
        Nn.Batch.add_to_mat_row ~src:dx ~src_off:(xb + d_tok) ~len:d_path
          ~dst:t.g_path ~row:up.(u);
        Nn.Batch.add_to_mat_row ~src:dx ~src_off:(xb + d_tok + d_path)
          ~len:d_tok ~dst:t.g_tok ~row:ur.(u)
      done;
    off := !off + nc
  done

let params (t : t) : Nn.Optim.params =
  [ (t.tok.Nn.Tensor.data, t.g_tok.Nn.Tensor.data);
    (t.path.Nn.Tensor.data, t.g_path.Nn.Tensor.data);
    (t.attn, t.g_attn) ]
  @ Nn.Dense.params t.combine

let zero_grad (t : t) : unit =
  Nn.Tensor.mat_fill_zero t.g_tok;
  Nn.Tensor.mat_fill_zero t.g_path;
  Nn.Tensor.fill_zero t.g_attn;
  Nn.Dense.zero_grad t.combine
