(* Tests for AST path-context extraction and the code2vec model. *)

let parse_stmt src =
  match Minic.Parser.parse_string (Printf.sprintf "int a[64]; int b[64]; void f() { %s }" src) with
  | [ _; _; Minic.Ast.Func f ] -> Minic.Ast.Block f.Minic.Ast.f_body
  | _ -> Alcotest.fail "parse failed"

(* ------------------------------------------------------------------ *)
(* Path contexts                                                        *)
(* ------------------------------------------------------------------ *)

let test_leaves_of_expr () =
  let t = Embedding.Ast_path.tree_of_expr
      (Minic.Ast.Binop (Minic.Ast.Add, Minic.Ast.Ident "x", Minic.Ast.IntLit 3L))
  in
  let leaves = Embedding.Ast_path.leaves_with_paths t in
  Alcotest.(check int) "two leaves" 2 (List.length leaves);
  Alcotest.(check (list string)) "leaf labels" [ "x"; "3" ]
    (List.map fst leaves)

let test_path_through_lca () =
  let t = Embedding.Ast_path.tree_of_expr
      (Minic.Ast.Binop (Minic.Ast.Add, Minic.Ast.Ident "x", Minic.Ast.IntLit 3L))
  in
  match Embedding.Ast_path.extract t with
  | [ c ] ->
      Alcotest.(check string) "left" "x" c.Embedding.Ast_path.left;
      Alcotest.(check string) "right" "3" c.Embedding.Ast_path.right;
      Alcotest.(check bool) "path nonempty" true
        (String.length c.Embedding.Ast_path.path > 0)
  | cs -> Alcotest.failf "expected 1 context, got %d" (List.length cs)

let test_contexts_capped () =
  let s = parse_stmt "int i; for (i = 0; i < 64; i++) { a[i] = b[i] * b[i] + i - 3; }" in
  let ctxs = Embedding.Ast_path.contexts_of_stmt ~max_contexts:10 s in
  Alcotest.(check bool) "at most 10" true (List.length ctxs <= 10);
  Alcotest.(check bool) "nonempty" true (ctxs <> [])

let test_contexts_deterministic () =
  let s = parse_stmt "int i; for (i = 0; i < 64; i++) a[i] = b[i];" in
  let a = Embedding.Ast_path.contexts_of_stmt s in
  let b = Embedding.Ast_path.contexts_of_stmt s in
  Alcotest.(check bool) "same contexts" true (a = b)

let test_similar_loops_share_paths () =
  (* same structure, different names: paths identical *)
  let s1 = parse_stmt "int i; for (i = 0; i < 64; i++) a[i] = b[i];" in
  let s2 = parse_stmt "int j; for (j = 0; j < 64; j++) b[j] = a[j];" in
  let paths s =
    Embedding.Ast_path.contexts_of_stmt s
    |> List.map (fun c -> c.Embedding.Ast_path.path)
  in
  Alcotest.(check bool) "structural paths equal" true (paths s1 = paths s2)

(* The enumerate-all extraction: build every qualifying pair's context,
   then sample evenly.  [extract] counts the pairs first and builds only
   the kept ones; it must return exactly this list.  Also returns the
   number of qualifying pairs. *)
let extract_all ?(max_contexts = 24) ?(max_path = 9) t =
  let open Embedding.Ast_path in
  let leaves = Array.of_list (leaves_with_paths t) in
  let n = Array.length leaves in
  let all = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let la, pa = leaves.(i) and lb, pb = leaves.(j) in
      if List.length pa + List.length pb <= 2 * max_path then
        all := { left = la; path = path_between pa pb; right = lb } :: !all
    done
  done;
  let all = Array.of_list (List.rev !all) in
  let total = Array.length all in
  if total <= max_contexts then (Array.to_list all, total)
  else begin
    let out = ref [] in
    for k = max_contexts - 1 downto 0 do
      out := all.(k * total / max_contexts) :: !out
    done;
    (!out, total)
  end

(* [extract] equals the reference on [stmt] at several caps; returns how
   many of those caps kept every pair and how many sampled *)
let check_extract ~what (stmt : Minic.Ast.stmt) : int * int =
  let t = Embedding.Ast_path.tree_of_stmt stmt in
  List.fold_left
    (fun (kept_all, sampled) (max_contexts, max_path) ->
      let want, total = extract_all ~max_contexts ~max_path t in
      if Embedding.Ast_path.extract ~max_contexts ~max_path t <> want then
        Alcotest.failf "%s: extract differs at max_contexts=%d max_path=%d"
          what max_contexts max_path;
      if total <= max_contexts then (kept_all + 1, sampled)
      else (kept_all, sampled + 1))
    (0, 0)
    [ (24, 9); (1, 9); (7, 4); (200, 9); (0, 9) ]

let check_both_branches what counts =
  let kept_all, sampled =
    List.fold_left (fun (a, b) (x, y) -> (a + x, b + y)) (0, 0) counts
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d kept every pair, %d sampled" what kept_all sampled)
    true
    (kept_all > 0 && sampled > 0)

let test_extract_matches_reference_corpus () =
  let sites_of (p : Dataset.Program.t) =
    let ast = (Neurovec.Frontend.checked p).Neurovec.Frontend.a_ast in
    Neurovec.Extractor.embedding_stmt ast
    :: List.map
         (fun s -> s.Neurovec.Extractor.context)
         (Neurovec.Extractor.extract ast)
  in
  let programs =
    Array.concat
      [ Dataset.Polybench.programs; Dataset.Mibench.programs;
        Dataset.Llvm_suite.programs; Dataset.Loopgen.generate ~seed:5 2000 ]
  in
  Array.to_list programs
  |> List.concat_map (fun p ->
         List.mapi
           (fun i stmt ->
             check_extract
               ~what:(Printf.sprintf "%s site %d" p.Dataset.Program.p_name i)
               stmt)
           (sites_of p))
  |> check_both_branches "corpus sites"

let test_extract_matches_reference_wide () =
  (* one statement of [k] terms: its pair count grows with k, from under
     the default cap of 24 to far over it *)
  List.map
    (fun k ->
      let terms = List.init k (Printf.sprintf "b[%d]") in
      let stmt = parse_stmt ("a[0] = " ^ String.concat " + " terms ^ ";") in
      check_extract ~what:(Printf.sprintf "%d terms" k) stmt)
    [ 1; 2; 3; 5; 8; 13; 21; 34; 55 ]
  |> check_both_branches "wide statements";
  (* and at the default cap alone, both sides of it *)
  let default_total k =
    let terms = List.init k (Printf.sprintf "b[%d]") in
    snd
      (extract_all
         (Embedding.Ast_path.tree_of_stmt
            (parse_stmt ("a[0] = " ^ String.concat " + " terms ^ ";"))))
  in
  Alcotest.(check bool) "2 terms under the default cap" true
    (default_total 2 <= 24);
  Alcotest.(check bool) "21 terms over the default cap" true
    (default_total 21 > 24)

(* ------------------------------------------------------------------ *)
(* Vocab                                                                *)
(* ------------------------------------------------------------------ *)

let test_vocab_ranges () =
  let v = Embedding.Vocab.default in
  List.iter
    (fun s ->
      let id = Embedding.Vocab.token_id v s in
      Alcotest.(check bool) "token id in range" true
        (id >= 0 && id < v.Embedding.Vocab.n_tokens))
    [ "x"; "sum"; "42"; "10000"; "" ]

let test_vocab_numeral_buckets () =
  let v = Embedding.Vocab.default in
  Alcotest.(check int) "3 and 5 collide (both small)"
    (Embedding.Vocab.token_id v "3") (Embedding.Vocab.token_id v "5");
  Alcotest.(check bool) "3 and 3000 differ" true
    (Embedding.Vocab.token_id v "3" <> Embedding.Vocab.token_id v "3000")

let test_vocab_case_fold () =
  let v = Embedding.Vocab.default in
  Alcotest.(check int) "case-insensitive"
    (Embedding.Vocab.token_id v "Sum") (Embedding.Vocab.token_id v "sum")

(* ------------------------------------------------------------------ *)
(* Code2vec                                                             *)
(* ------------------------------------------------------------------ *)

let mk_model ?cfg () =
  Embedding.Code2vec.create ?cfg (Nn.Rng.create 17)

let some_ids model =
  let s = parse_stmt "int i; for (i = 0; i < 64; i++) { a[i] = b[i] * 2; }" in
  Embedding.Code2vec.encode model (Embedding.Ast_path.contexts_of_stmt s)

let d_code (m : Embedding.Code2vec.t) =
  m.Embedding.Code2vec.cfg.Embedding.Code2vec.d_code

(* a forward over [snippets] on a fresh arena: the arena (which keeps the
   activations) and the code rows *)
let c2v_forward m snippets =
  let arena = Nn.Batch.create_arena () in
  (arena, Embedding.Code2vec.forward_batch m arena snippets)

(* one snippet's code vector *)
let code1 m ids =
  let _, codes = c2v_forward m [| ids |] in
  Array.init (d_code m) (Nn.Batch.get codes)

(* the first snippet's context count and attention weights *)
let first_alphas arena =
  let n = (Nn.Batch.int_slot arena "c2v.counts" 1).(0) in
  Array.sub (Nn.Batch.float_slot arena "c2v.alpha" n) 0 n

let buf_of (v : float array) : Nn.Batch.buf =
  let b = Nn.Batch.create (Array.length v) in
  Array.iteri (fun i x -> Nn.Batch.set b i x) v;
  b

(* forward then row backward of one snippet for dL/dcode = [w] *)
let backward1 m ids w =
  let arena, _ = c2v_forward m [| ids |] in
  Embedding.Code2vec.backward_batch m arena [| ids |] ~dcode:(buf_of w)

let test_c2v_forward_shape () =
  let m = mk_model () in
  let arena, codes = c2v_forward m [| some_ids m |] in
  Alcotest.(check bool) "code dim" true
    (d_code m = 128 && Bigarray.Array1.dim codes >= 128);
  let asum = Array.fold_left ( +. ) 0.0 (first_alphas arena) in
  Alcotest.(check (float 1e-6)) "attention sums to 1" 1.0 asum

let test_c2v_empty_contexts () =
  let m = mk_model () in
  Alcotest.(check bool) "finite output" true
    (Array.for_all Float.is_finite (code1 m [||]))

let test_c2v_similar_code_similar_vec () =
  let m = mk_model () in
  let vec src =
    let s = parse_stmt src in
    code1 m (Embedding.Code2vec.encode m (Embedding.Ast_path.contexts_of_stmt s))
  in
  let d a b =
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) ** 2.0)) a;
    sqrt !acc
  in
  (* v2 differs from v1 only in a constant within the same magnitude
     bucket, so its vocabulary ids — and with them the embedding — agree
     exactly; v3 is structurally different *)
  let v1 = vec "int i; for (i = 0; i < 64; i++) a[i] = b[i];" in
  let v2 = vec "int i; for (i = 0; i < 100; i++) a[i] = b[i];" in
  let v3 = vec "int i; for (i = 0; i < 64; i++) { if (b[i] > 3) { int s = 0; s += b[i]; a[i] = s * s; } }" in
  Alcotest.(check bool) "bucketed constants embed identically" true
    (d v1 v2 < 1e-9);
  Alcotest.(check bool) "different structure embeds differently" true
    (d v1 v3 > 1e-6)

(* finite-difference gradient check through the whole model *)
let test_c2v_gradients () =
  let m = mk_model () in
  let ids = some_ids m in
  let w = Array.init 128 (fun i -> sin (float_of_int i)) in
  let loss () = Nn_ref.dot (code1 m ids) w in
  Embedding.Code2vec.zero_grad m;
  backward1 m ids w;
  let check name get set analytic =
    let saved = get () in
    set (saved +. 1e-5);
    let lp = loss () in
    set (saved -. 1e-5);
    let lm = loss () in
    set saved;
    let numeric = (lp -. lm) /. 2e-5 in
    if abs_float (numeric -. analytic) > 1e-2 *. (1.0 +. abs_float numeric) then
      Alcotest.failf "%s: numeric %f vs analytic %f" name numeric analytic
  in
  (* attention vector component *)
  check "attn[3]"
    (fun () -> m.Embedding.Code2vec.attn.(3))
    (fun v -> m.Embedding.Code2vec.attn.(3) <- v)
    m.Embedding.Code2vec.g_attn.(3);
  (* a token-embedding entry actually used by the first context *)
  let tok_idx = (ids.(0).Embedding.Code2vec.li * 32) + 1 in
  check "tok emb"
    (fun () -> m.Embedding.Code2vec.tok.Nn.Tensor.data.(tok_idx))
    (fun v -> m.Embedding.Code2vec.tok.Nn.Tensor.data.(tok_idx) <- v)
    m.Embedding.Code2vec.g_tok.Nn.Tensor.data.(tok_idx);
  (* a combiner weight *)
  let w57 = (5 * m.Embedding.Code2vec.combine.Nn.Dense.in_dim) + 7 in
  let cw = m.Embedding.Code2vec.combine.Nn.Dense.w.Nn.Tensor.data in
  check "W[5,7]"
    (fun () -> cw.(w57))
    (fun v -> cw.(w57) <- v)
    m.Embedding.Code2vec.combine.Nn.Dense.gw.Nn.Tensor.data.(w57)

let test_c2v_mean_pooling () =
  let cfg = { Embedding.Code2vec.default_config with use_attention = false } in
  let m = mk_model ~cfg () in
  let arena, _ = c2v_forward m [| some_ids m |] in
  let alphas = first_alphas arena in
  let n = Array.length alphas in
  Array.iter
    (fun a ->
      Alcotest.(check (float 1e-9)) "uniform" (1.0 /. float_of_int n) a)
    alphas

(* regression: [encode] capped contexts but the forward trusted its
   input, so ids handed in directly (a pre-encoded corpus, a batched
   caller) blew past cfg.max_contexts — both entry points must clamp *)
let test_c2v_clamps_max_contexts () =
  let cfg = { Embedding.Code2vec.default_config with max_contexts = 3 } in
  let m = mk_model ~cfg () in
  let s =
    parse_stmt
      "int i; for (i = 0; i < 64; i++) { a[i] = b[i] * b[i] + i - 3; }"
  in
  let ctxs = Embedding.Ast_path.contexts_of_stmt s in
  Alcotest.(check bool) "loop yields more contexts than the cap" true
    (List.length ctxs > 3);
  Alcotest.(check int) "encode clamps" 3
    (Array.length (Embedding.Code2vec.encode m ctxs));
  let over =
    Array.init 10 (fun i ->
        { Embedding.Code2vec.li = i mod 4; pi = i; ri = i mod 3 })
  in
  let arena, _ = c2v_forward m [| over |] in
  Alcotest.(check int) "forward_batch clamps" 3
    (Nn.Batch.int_slot arena "c2v.counts" 1).(0);
  Alcotest.(check (float 1e-9)) "attention follows the clamp" 1.0
    (Array.fold_left ( +. ) 0.0 (first_alphas arena))

(* regression: the empty-context pad {li=0; pi=0; ri=0} used to train the
   real vocabulary rows behind id 0 — its embedding gradients must stay
   frozen while the rest of the model still learns *)
let test_c2v_pad_gradient_frozen () =
  let m = mk_model () in
  let w = Array.init 128 (fun i -> cos (float_of_int i)) in
  let all_zero (t : Nn.Tensor.mat) =
    Array.for_all (fun v -> v = 0.0) t.Nn.Tensor.data
  in
  Embedding.Code2vec.zero_grad m;
  backward1 m [||] w;
  Alcotest.(check bool) "pad leaves the token table untouched" true
    (all_zero m.Embedding.Code2vec.g_tok);
  Alcotest.(check bool) "pad leaves the path table untouched" true
    (all_zero m.Embedding.Code2vec.g_path);
  Alcotest.(check bool) "pad still trains the combiner" true
    (Array.exists (fun v -> v <> 0.0)
       m.Embedding.Code2vec.combine.Nn.Dense.gb);
  (* a real snippet does reach the tables through the same code path *)
  Embedding.Code2vec.zero_grad m;
  backward1 m (some_ids m) w;
  Alcotest.(check bool) "real contexts update the token table" true
    (not (all_zero m.Embedding.Code2vec.g_tok))

(* ------------------------------------------------------------------ *)
(* Batched embedding: bit-identical to the per-snippet reference       *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* with [model], the rows come from the row table: computed on the first
   pass, reused on the second *)
let check_batch_matches_scalar ?model (m : Embedding.Code2vec.t)
    (snippets : Embedding.Code2vec.ids array array) : unit =
  Memo.clear Embedding.Code2vec.rows;
  let arena = Nn.Batch.create_arena () in
  let d_code = m.Embedding.Code2vec.cfg.Embedding.Code2vec.d_code in
  (* twice through the same arena: the second pass reuses warm slots *)
  for pass = 1 to 2 do
    let codes = Embedding.Code2vec.forward_batch ?model m arena snippets in
    Array.iteri
      (fun i ids ->
        let expect, _ = Nn_ref.code m ids in
        for j = 0 to d_code - 1 do
          let got = Nn.Batch.get codes ((i * d_code) + j) in
          if bits expect.(j) <> bits got then
            Alcotest.failf "pass %d snippet %d dim %d: %h vs %h" pass i j
              expect.(j) got
        done)
      snippets
  done

let test_c2v_forward_batch_bitwise () =
  let m = mk_model () in
  let ids_of src =
    let s = parse_stmt src in
    Embedding.Code2vec.encode m (Embedding.Ast_path.contexts_of_stmt s)
  in
  let over =
    Array.init 40 (fun i ->
        { Embedding.Code2vec.li = i mod 5; pi = i mod 7; ri = i mod 3 })
  in
  List.iter
    (fun model ->
      check_batch_matches_scalar ?model m
        [|
          some_ids m;
          [||] (* empty snippet: the padded row *);
          ids_of
            "int i; for (i = 0; i < 64; i++) { if (b[i] > 3) a[i] = b[i]; }";
          over (* clamps inside the batch *);
          some_ids m (* duplicate snippet: exercises the context dedup *);
        |];
      (* and a batch that is nothing but pads *)
      check_batch_matches_scalar ?model m [| [||]; [||] |])
    [ None; Some "attention model" ]

let test_c2v_forward_batch_mean_pooling () =
  let cfg = { Embedding.Code2vec.default_config with use_attention = false } in
  let m = mk_model ~cfg () in
  List.iter
    (fun model ->
      check_batch_matches_scalar ?model m [| some_ids m; [||]; some_ids m |])
    [ None; Some "mean-pooling model" ]

let suite =
  [
    ( "embedding.paths",
      [
        Alcotest.test_case "expr leaves" `Quick test_leaves_of_expr;
        Alcotest.test_case "path through LCA" `Quick test_path_through_lca;
        Alcotest.test_case "context cap" `Quick test_contexts_capped;
        Alcotest.test_case "deterministic" `Quick test_contexts_deterministic;
        Alcotest.test_case "structure-invariant paths" `Quick
          test_similar_loops_share_paths;
        Alcotest.test_case "extract = enumerate-all, every corpus site"
          `Quick test_extract_matches_reference_corpus;
        Alcotest.test_case "extract = enumerate-all, wide statements" `Quick
          test_extract_matches_reference_wide;
      ] );
    ( "embedding.vocab",
      [
        Alcotest.test_case "ids in range" `Quick test_vocab_ranges;
        Alcotest.test_case "numeral buckets" `Quick test_vocab_numeral_buckets;
        Alcotest.test_case "case folding" `Quick test_vocab_case_fold;
      ] );
    ( "embedding.code2vec",
      [
        Alcotest.test_case "forward shape" `Quick test_c2v_forward_shape;
        Alcotest.test_case "empty contexts" `Quick test_c2v_empty_contexts;
        Alcotest.test_case "similarity structure" `Quick
          test_c2v_similar_code_similar_vec;
        Alcotest.test_case "gradient check" `Quick test_c2v_gradients;
        Alcotest.test_case "mean pooling ablation" `Quick test_c2v_mean_pooling;
        Alcotest.test_case "max_contexts clamp" `Quick
          test_c2v_clamps_max_contexts;
        Alcotest.test_case "pad gradient frozen" `Quick
          test_c2v_pad_gradient_frozen;
      ] );
    ( "batched.embedding",
      [
        Alcotest.test_case "forward_batch bitwise" `Quick
          test_c2v_forward_batch_bitwise;
        Alcotest.test_case "forward_batch mean pooling" `Quick
          test_c2v_forward_batch_mean_pooling;
      ] );
  ]
