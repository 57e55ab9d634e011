(** A multi-layer perceptron with tanh (or relu) hidden activations; the
    paper's policy trunk is the 64x64 tanh FCNN this module instantiates.

    [forward_rows] keeps every layer's output in its own arena slot, so
    [backward_rows] can run on the same arena afterwards. *)

type activation = Tanh | Relu | Linear

type t = { layers : Dense.t list; act : activation }

(** [create rng ~dims ~act] builds a stack with [dims = [in; h1; ...; out]];
    the activation is applied after every layer except the last. *)
let create (rng : Rng.t) ~(dims : int list) ~(act : activation) : t =
  let rec build = function
    | a :: (b :: _ as rest) ->
        Dense.create rng ~in_dim:a ~out_dim:b :: build rest
    | _ -> []
  in
  { layers = build dims; act }

(* the arena slot holding layer [i]'s (post-activation) output; the
   common depths need no string built per call *)
let out_names = Array.init 8 (fun i -> "mlp." ^ string_of_int i)

let out_name i =
  if i < Array.length out_names then out_names.(i)
  else "mlp." ^ string_of_int i

(** Batched forward: [rows] row-major inputs in [x], activation between
    layers but not after the last.  Returns the output buffer — an arena
    slot (or [x] itself for an empty stack); it and every hidden layer's
    output stay valid until the next use of the same slots. *)
let forward_rows (t : t) (arena : Batch.arena) ~(x : Batch.buf) ~(rows : int)
    : Batch.buf =
  let n = List.length t.layers in
  let rec go i x = function
    | [] -> x
    | (l : Dense.t) :: rest ->
        let y = Batch.slot arena (out_name i) (rows * l.Dense.out_dim) in
        Dense.forward_rows l ~x ~y ~rows;
        (if i < n - 1 then
           let len = rows * l.Dense.out_dim in
           match t.act with
           | Tanh -> Batch.tanh_inplace y ~len
           | Relu -> Batch.relu_inplace y ~len
           | Linear -> ());
        go (i + 1) y rest
  in
  go 0 x t.layers

(** The output buffer of the last {!forward_rows} on [arena] over [x]. *)
let output_rows (t : t) (arena : Batch.arena) ~(x : Batch.buf) ~(rows : int)
    : Batch.buf =
  match List.length t.layers with
  | 0 -> x
  | n ->
      let l : Dense.t = List.nth t.layers (n - 1) in
      Batch.slot arena (out_name (n - 1)) (rows * l.Dense.out_dim)

(** Row backward of the last {!forward_rows} on [arena] over [x]: [dy]
    holds dL/d(output) (left unmodified); accumulates every layer's
    gradients, rows in order, and returns dL/dx — an arena slot, or [dy]
    itself for an empty stack. *)
let backward_rows (t : t) (arena : Batch.arena) ~(x : Batch.buf)
    ~(dy : Batch.buf) ~(rows : int) : Batch.buf =
  let layers = Array.of_list t.layers in
  let n = Array.length layers in
  let dy = ref dy in
  for i = n - 1 downto 0 do
    let l = layers.(i) in
    (* undo the activation after layer i (every layer but the last);
       [!dy] is then layer i+1's dx, a slot of ours *)
    (if i < n - 1 then
       let len = rows * l.Dense.out_dim in
       let y = Batch.slot arena (out_name i) len in
       match t.act with
       | Tanh -> Batch.tanh_bwd_inplace ~y ~dy:!dy ~len
       | Relu -> Batch.relu_bwd_inplace ~y ~dy:!dy ~len
       | Linear -> ());
    let x =
      if i = 0 then x
      else Batch.slot arena (out_name (i - 1)) (rows * l.Dense.in_dim)
    in
    (* ping-pong so a layer never writes the buffer it reads *)
    let dx =
      Batch.slot arena (if i land 1 = 0 then "mlp.da" else "mlp.db")
        (rows * l.Dense.in_dim)
    in
    Dense.backward_rows l ~x ~dy:!dy ~dx ~rows;
    dy := dx
  done;
  !dy

let params (t : t) : Optim.params =
  List.concat_map Dense.params t.layers

let zero_grad (t : t) : unit = List.iter Dense.zero_grad t.layers
