(* Tests for the neural-network substrate: RNG, tensors, layers, optimizers.
   Gradient checks against finite differences are the load-bearing tests. *)

let feps = 1e-4

(* ------------------------------------------------------------------ *)
(* RNG                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Nn.Rng.create 7 and b = Nn.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Nn.Rng.float a) (Nn.Rng.float b)
  done

let test_rng_range () =
  let r = Nn.Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Nn.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0);
    let i = Nn.Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (i >= 0 && i < 10)
  done

let test_rng_normal_moments () =
  let r = Nn.Rng.create 2 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Nn.Rng.normal r) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
    /. float_of_int n
  in
  Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (abs_float (var -. 1.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Nn.Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Nn.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Tensor ops                                                           *)
(* ------------------------------------------------------------------ *)

(* one-row buffers for the row kernels *)
let buf_of (v : float array) : Nn.Batch.buf =
  let b = Nn.Batch.create (Array.length v) in
  Array.iteri (fun i x -> Nn.Batch.set b i x) v;
  b

let vec_of (b : Nn.Batch.buf) (n : int) : float array =
  Array.init n (Nn.Batch.get b)

let mat_of (rows : int) (cols : int) (vs : float list) : Nn.Tensor.mat =
  let m = Nn.Tensor.mat_create rows cols in
  List.iteri (fun i v -> m.Nn.Tensor.data.(i) <- v) vs;
  m

(* [[1 2 3]; [4 5 6]] times [1; 0.5; -1], through the forward row kernel *)
let test_gemv () =
  let w = mat_of 2 3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let y = Nn.Batch.create 2 in
  Nn.Batch.dense_rows ~w ~b:[| 0.0; 0.0 |] ~x:(buf_of [| 1.0; 0.5; -1.0 |])
    ~y ~rows:1;
  Alcotest.(check (float feps)) "y0" (-1.0) (Nn.Batch.get y 0);
  Alcotest.(check (float feps)) "y1" 0.5 (Nn.Batch.get y 1)

(* the backward row kernel's input gradient is W^T dy *)
let test_gemv_t () =
  let w = mat_of 2 3 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let dx = Nn.Batch.create 3 in
  Nn.Batch.dense_bwd_rows ~w ~gw:(Nn.Tensor.mat_create 2 3)
    ~gb:(Nn.Tensor.vec_create 2) ~x:(Nn.Batch.create 3)
    ~dy:(buf_of [| 1.0; -1.0 |]) ~dx ~rows:1 ();
  Alcotest.(check (float feps)) "y0" (-3.0) (Nn.Batch.get dx 0);
  Alcotest.(check (float feps)) "y1" (-3.0) (Nn.Batch.get dx 1);
  Alcotest.(check (float feps)) "y2" (-3.0) (Nn.Batch.get dx 2)

(* and its weight gradient accumulates the outer product dy x^T *)
let test_ger () =
  let w = Nn.Tensor.mat_create 2 2 and gw = Nn.Tensor.mat_create 2 2 in
  Nn.Batch.dense_bwd_rows ~w ~gw ~gb:(Nn.Tensor.vec_create 2)
    ~x:(buf_of [| 4.0; 5.0 |]) ~dy:(buf_of [| 2.0; 6.0 |])
    ~dx:(Nn.Batch.create 2) ~rows:1 ();
  Alcotest.(check (float feps)) "m00" 8.0 gw.Nn.Tensor.data.(0);
  Alcotest.(check (float feps)) "m11" 30.0 gw.Nn.Tensor.data.(3)

let test_softmax () =
  let p = Nn.Tensor.softmax [| 1.0; 2.0; 3.0 |] in
  let sum = Array.fold_left ( +. ) 0.0 p in
  Alcotest.(check (float feps)) "sums to 1" 1.0 sum;
  Alcotest.(check bool) "monotone" true (p.(0) < p.(1) && p.(1) < p.(2));
  (* stability with large inputs *)
  let p2 = Nn.Tensor.softmax [| 1000.0; 1001.0 |] in
  Alcotest.(check bool) "no nan" true (Float.is_finite p2.(0))

let test_log_softmax_consistent () =
  let z = [| 0.3; -1.2; 2.0; 0.0 |] in
  let p = Nn.Tensor.softmax z and lp = Nn.Tensor.log_softmax z in
  Array.iteri
    (fun i pi -> Alcotest.(check (float 1e-9)) "log p" (log pi) lp.(i))
    p

let test_sample_respects_distribution () =
  let rng = Nn.Rng.create 4 in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 3000 do
    let i = Nn.Tensor.sample_u ~u:(Nn.Rng.float rng) [| 0.1; 0.2; 0.7 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heavy index dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

(* the greedy decision rule: the first strict maximum of a segment *)
let test_argmax () =
  let b = buf_of [| 9.0; 0.1; -3.0; 5.0; 4.9; 5.0 |] in
  Alcotest.(check int) "argmax" 2 (Nn.Batch.argmax_seg b ~off:1 ~len:4);
  Alcotest.(check int) "first of a tie" 2 (Nn.Batch.argmax_seg b ~off:1 ~len:5)

(* ---- sample validation (regression: the old loop silently returned the
   last index whenever u overshot the accumulated mass, so a NaN or
   deficient probability vector produced an arbitrary action instead of
   an error) ---- *)

let expect_bad_probability what f =
  match f () with
  | exception Nn.Tensor.Bad_probability _ -> ()
  | i -> Alcotest.failf "%s: expected Bad_probability, got index %d" what i

let test_sample_rejects_nan () =
  expect_bad_probability "nan entry" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [| 0.3; Float.nan; 0.4 |])

let test_sample_rejects_negative () =
  expect_bad_probability "negative entry" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [| 0.6; -0.2; 0.6 |])

let test_sample_rejects_deficient_mass () =
  (* u beyond the total mass used to fall through to the last index *)
  expect_bad_probability "mass 0.3" (fun () ->
      Nn.Tensor.sample_u ~u:0.9 [| 0.1; 0.2 |]);
  expect_bad_probability "empty vector" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [||])

let test_sample_u_valid_vectors () =
  Alcotest.(check int) "picks by cdf" 1
    (Nn.Tensor.sample_u ~u:0.35 [| 0.25; 0.25; 0.25; 0.25 |]);
  (* a softmax whose sum rounds to 1 - epsilon must still serve u ~ 1
     via the last index, not raise *)
  Alcotest.(check int) "rounding tolerance" 1
    (Nn.Tensor.sample_u ~u:0.99999999 [| 0.5; 0.4999999 |])

(* ------------------------------------------------------------------ *)
(* Gradient checks                                                      *)
(* ------------------------------------------------------------------ *)

(* one row through a layer: forward, and backward for dL/dy = [dy] *)
let dense1 (l : Nn.Dense.t) (x : float array) : float array =
  let y = Nn.Batch.create l.Nn.Dense.out_dim in
  Nn.Dense.forward_rows l ~x:(buf_of x) ~y ~rows:1;
  vec_of y l.Nn.Dense.out_dim

let dense_bwd1 (l : Nn.Dense.t) (x : float array) (dy : float array) :
    float array =
  let dx = Nn.Batch.create l.Nn.Dense.in_dim in
  Nn.Dense.backward_rows l ~x:(buf_of x) ~dy:(buf_of dy) ~dx ~rows:1;
  vec_of dx l.Nn.Dense.in_dim

let dot a b = Nn_ref.dot a b

let wget (m : Nn.Tensor.mat) i j = m.Nn.Tensor.data.((i * m.Nn.Tensor.cols) + j)

let wset (m : Nn.Tensor.mat) i j v =
  m.Nn.Tensor.data.((i * m.Nn.Tensor.cols) + j) <- v

(* numerically check dL/dp for a few parameters, L = sum(output .* w) *)
let test_dense_gradients () =
  let rng = Nn.Rng.create 5 in
  let l = Nn.Dense.create rng ~in_dim:4 ~out_dim:3 in
  let x = [| 0.5; -1.0; 0.25; 2.0 |] in
  let wsum = [| 1.0; -2.0; 0.5 |] in
  let loss () = dot (dense1 l x) wsum in
  Nn.Dense.zero_grad l;
  ignore (dense_bwd1 l x wsum);
  (* check a handful of weight gradients *)
  List.iter
    (fun (i, j) ->
      let saved = wget l.Nn.Dense.w i j in
      wset l.Nn.Dense.w i j (saved +. 1e-5);
      let lp = loss () in
      wset l.Nn.Dense.w i j (saved -. 1e-5);
      let lm = loss () in
      wset l.Nn.Dense.w i j saved;
      let numeric = (lp -. lm) /. 2e-5 in
      let analytic = wget l.Nn.Dense.gw i j in
      if abs_float (numeric -. analytic) > 1e-3 then
        Alcotest.failf "dW[%d,%d]: numeric %f vs analytic %f" i j numeric
          analytic)
    [ (0, 0); (1, 2); (2, 3); (0, 1) ]

let test_dense_input_gradient () =
  let rng = Nn.Rng.create 6 in
  let l = Nn.Dense.create rng ~in_dim:3 ~out_dim:2 in
  let x = [| 0.1; 0.7; -0.3 |] in
  let wsum = [| 0.5; -1.5 |] in
  Nn.Dense.zero_grad l;
  let dx = dense_bwd1 l x wsum in
  for j = 0 to 2 do
    let x2 = Array.copy x in
    x2.(j) <- x2.(j) +. 1e-5;
    let lp = dot (dense1 l x2) wsum in
    x2.(j) <- x2.(j) -. 2e-5;
    let lm = dot (dense1 l x2) wsum in
    let numeric = (lp -. lm) /. 2e-5 in
    if abs_float (numeric -. dx.(j)) > 1e-3 then
      Alcotest.failf "dx[%d]: numeric %f vs analytic %f" j numeric dx.(j)
  done

let test_mlp_gradients () =
  let rng = Nn.Rng.create 7 in
  let mlp = Nn.Mlp.create rng ~dims:[ 4; 8; 3 ] ~act:Nn.Mlp.Tanh in
  let arena = Nn.Batch.create_arena () in
  let x = [| 0.2; -0.6; 1.1; 0.05 |] in
  let wsum = [| 1.0; 0.3; -0.8 |] in
  let loss () =
    dot (vec_of (Nn.Mlp.forward_rows mlp arena ~x:(buf_of x) ~rows:1) 3) wsum
  in
  Nn.Mlp.zero_grad mlp;
  let xb = buf_of x in
  ignore (Nn.Mlp.forward_rows mlp arena ~x:xb ~rows:1);
  let dx =
    vec_of (Nn.Mlp.backward_rows mlp arena ~x:xb ~dy:(buf_of wsum) ~rows:1) 4
  in
  (* input gradient via finite differences *)
  for j = 0 to 3 do
    let saved = x.(j) in
    x.(j) <- saved +. 1e-5;
    let lp = loss () in
    x.(j) <- saved -. 1e-5;
    let lm = loss () in
    x.(j) <- saved;
    let numeric = (lp -. lm) /. 2e-5 in
    if abs_float (numeric -. dx.(j)) > 1e-3 then
      Alcotest.failf "mlp dx[%d]: numeric %f vs analytic %f" j numeric dx.(j)
  done;
  (* and one weight of the first layer *)
  let l0 = List.hd mlp.Nn.Mlp.layers in
  let saved = wget l0.Nn.Dense.w 2 1 in
  wset l0.Nn.Dense.w 2 1 (saved +. 1e-5);
  let lp = loss () in
  wset l0.Nn.Dense.w 2 1 (saved -. 1e-5);
  let lm = loss () in
  wset l0.Nn.Dense.w 2 1 saved;
  let numeric = (lp -. lm) /. 2e-5 in
  let analytic = wget l0.Nn.Dense.gw 2 1 in
  if abs_float (numeric -. analytic) > 1e-3 then
    Alcotest.failf "mlp dW: numeric %f vs analytic %f" numeric analytic

(* ------------------------------------------------------------------ *)
(* Optimizers                                                           *)
(* ------------------------------------------------------------------ *)

(* minimize (p - 3)^2 *)
let quad_converges opt_of =
  let p = [| 0.0 |] and g = [| 0.0 |] in
  let opt = opt_of () in
  for _ = 1 to 500 do
    g.(0) <- 2.0 *. (p.(0) -. 3.0);
    Nn.Optim.step opt [ (p, g) ]
  done;
  abs_float (p.(0) -. 3.0) < 0.05

let test_sgd_converges () =
  Alcotest.(check bool) "sgd" true (quad_converges (fun () -> Nn.Optim.sgd ~lr:0.05))

let test_adam_converges () =
  Alcotest.(check bool) "adam" true
    (quad_converges (fun () -> Nn.Optim.adam ~lr:0.05 ()))

let test_adam_beats_noise () =
  (* adam with tiny lr still moves in the right direction *)
  let p = [| 10.0 |] and g = [| 0.0 |] in
  let opt = Nn.Optim.adam ~lr:0.01 () in
  for _ = 1 to 100 do
    g.(0) <- p.(0);
    Nn.Optim.step opt [ (p, g) ]
  done;
  Alcotest.(check bool) "moved toward 0" true (p.(0) < 10.0)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* regression: Adam pairs its moment vectors with the params purely by
   position, so a model whose shape changed under a live optimizer used
   to corrupt the moments silently — now it must raise Bad_state *)
let test_adam_rejects_shape_change () =
  let opt = Nn.Optim.adam ~lr:0.01 () in
  let p = [| 1.0; 2.0 |] and g = [| 0.1; 0.1 |] in
  Nn.Optim.step opt [ (p, g) ];
  (* more parameter tensors than moment slots *)
  (match Nn.Optim.step opt [ (p, g); (p, g) ] with
  | () -> Alcotest.fail "expected Bad_state on a changed param count"
  | exception Nn.Optim.Bad_state m ->
      Alcotest.(check bool) "count message" true
        (contains ~sub:"moment slots" m));
  (* same count, resized tensor *)
  let p3 = [| 1.0; 2.0; 3.0 |] and g3 = [| 0.1; 0.1; 0.1 |] in
  (match Nn.Optim.step opt [ (p3, g3) ] with
  | () -> Alcotest.fail "expected Bad_state on a resized tensor"
  | exception Nn.Optim.Bad_state m ->
      Alcotest.(check bool) "length message" true (contains ~sub:"elements" m));
  (* the matching list still steps fine afterwards *)
  Nn.Optim.step opt [ (p, g) ]

(* ------------------------------------------------------------------ *)
(* Batched kernels: bit-identical to the per-sample reference          *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let fill_rows (rows : float array array) : Nn.Batch.buf =
  let w = Array.length rows.(0) in
  let b = Nn.Batch.create (Array.length rows * w) in
  Array.iteri
    (fun r xr -> Array.iteri (fun j v -> Bigarray.Array1.set b ((r * w) + j) v) xr)
    rows;
  b

(* random layers over random shapes: dense_rows must reproduce the
   reference dense layer bit for bit, row by row (covers the unrolled
   main loop, the tail loop, and the fused bias add) *)
let test_dense_rows_bitwise () =
  let rng = Nn.Rng.create 31 in
  for trial = 1 to 25 do
    let in_dim = 1 + Nn.Rng.int rng 17 in
    let out_dim = 1 + Nn.Rng.int rng 13 in
    let rows = 1 + Nn.Rng.int rng 9 in
    let l = Nn.Dense.create rng ~in_dim ~out_dim in
    let xs =
      Array.init rows (fun _ -> Array.init in_dim (fun _ -> Nn.Rng.normal rng))
    in
    let y = Nn.Batch.create (rows * out_dim) in
    Nn.Dense.forward_rows l ~x:(fill_rows xs) ~y ~rows;
    Array.iteri
      (fun r xr ->
        let expect = Nn_ref.dense l xr in
        for o = 0 to out_dim - 1 do
          let got = Nn.Batch.get y ((r * out_dim) + o) in
          if bits expect.(o) <> bits got then
            Alcotest.failf "trial %d (%dx%d) row %d out %d: %h vs %h" trial
              in_dim out_dim r o expect.(o) got
        done)
      xs
  done

(* full trunk stacks under every activation, including the empty stack
   (forward_rows returns the input buffer, as the reference returns x) *)
let test_mlp_rows_bitwise () =
  let rng = Nn.Rng.create 32 in
  let arena = Nn.Batch.create_arena () in
  List.iter
    (fun (act, dims) ->
      let mlp = Nn.Mlp.create rng ~dims ~act in
      let in_dim = List.hd dims in
      let out_dim = List.hd (List.rev dims) in
      let rows = 7 in
      let xs =
        Array.init rows (fun _ ->
            Array.init in_dim (fun _ -> Nn.Rng.normal rng))
      in
      let y = Nn.Mlp.forward_rows mlp arena ~x:(fill_rows xs) ~rows in
      Array.iteri
        (fun r xr ->
          let expect = Nn_ref.mlp mlp xr in
          for o = 0 to out_dim - 1 do
            let got = Nn.Batch.get y ((r * out_dim) + o) in
            if bits expect.(o) <> bits got then
              Alcotest.failf "dims %s row %d out %d: %h vs %h"
                (String.concat "x" (List.map string_of_int dims))
                r o expect.(o) got
          done)
        xs)
    [ (Nn.Mlp.Tanh, [ 4; 8; 3 ]); (Nn.Mlp.Relu, [ 5; 6; 6; 2 ]);
      (Nn.Mlp.Linear, [ 3; 4 ]); (Nn.Mlp.Tanh, [ 4 ]) ]

let test_softmax_inplace_bitwise () =
  let rng = Nn.Rng.create 33 in
  for _ = 1 to 20 do
    let n = 1 + Nn.Rng.int rng 12 in
    let z = Array.init n (fun _ -> 4.0 *. Nn.Rng.normal rng) in
    let expect = Nn.Tensor.softmax z in
    let s = Array.copy z in
    Nn.Batch.softmax_inplace s ~n;
    for i = 0 to n - 1 do
      if bits expect.(i) <> bits s.(i) then
        Alcotest.failf "softmax[%d]: %h vs %h" i expect.(i) s.(i)
    done
  done

(* arena slots keep their identity (and grow, never shrink) so the warm
   steady state is allocation-free *)
let test_arena_slot_reuse () =
  let a = Nn.Batch.create_arena () in
  let b1 = Nn.Batch.slot a "x" 10 in
  let b2 = Nn.Batch.slot a "x" 8 in
  Alcotest.(check bool) "smaller request reuses the buffer" true (b1 == b2);
  let b3 = Nn.Batch.slot a "x" 1000 in
  Alcotest.(check bool) "larger request grows" true
    (Bigarray.Array1.dim b3 >= 1000);
  let b4 = Nn.Batch.slot a "y" 10 in
  Alcotest.(check bool) "names are distinct slots" true (b3 != b4);
  Nn.Batch.reset a;
  let b5 = Nn.Batch.slot a "x" 10 in
  Alcotest.(check bool) "reset drops the store" true (b3 != b5)

let suite =
  [
    ( "nn.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "ranges" `Quick test_rng_range;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ] );
    ( "nn.tensor",
      [
        Alcotest.test_case "gemv" `Quick test_gemv;
        Alcotest.test_case "gemv transpose" `Quick test_gemv_t;
        Alcotest.test_case "outer product" `Quick test_ger;
        Alcotest.test_case "softmax" `Quick test_softmax;
        Alcotest.test_case "log_softmax consistent" `Quick
          test_log_softmax_consistent;
        Alcotest.test_case "sampling" `Quick test_sample_respects_distribution;
        Alcotest.test_case "sample rejects nan" `Quick test_sample_rejects_nan;
        Alcotest.test_case "sample rejects negative" `Quick
          test_sample_rejects_negative;
        Alcotest.test_case "sample rejects deficient mass" `Quick
          test_sample_rejects_deficient_mass;
        Alcotest.test_case "sample_u valid vectors" `Quick
          test_sample_u_valid_vectors;
        Alcotest.test_case "argmax" `Quick test_argmax;
      ] );
    ( "nn.grad",
      [
        Alcotest.test_case "dense weight gradients" `Quick test_dense_gradients;
        Alcotest.test_case "dense input gradient" `Quick
          test_dense_input_gradient;
        Alcotest.test_case "mlp gradients" `Quick test_mlp_gradients;
      ] );
    ( "nn.optim",
      [
        Alcotest.test_case "sgd converges" `Quick test_sgd_converges;
        Alcotest.test_case "adam converges" `Quick test_adam_converges;
        Alcotest.test_case "adam direction" `Quick test_adam_beats_noise;
        Alcotest.test_case "adam rejects shape change" `Quick
          test_adam_rejects_shape_change;
      ] );
    ( "batched.kernels",
      [
        Alcotest.test_case "dense_rows bitwise" `Quick test_dense_rows_bitwise;
        Alcotest.test_case "mlp forward_rows bitwise" `Quick
          test_mlp_rows_bitwise;
        Alcotest.test_case "softmax_inplace bitwise" `Quick
          test_softmax_inplace_bitwise;
        Alcotest.test_case "arena slot reuse" `Quick test_arena_slot_reuse;
      ] );
  ]
