(** A fully-connected layer [y = W x + b] with gradient accumulation.

    Layers are stateless with respect to inputs: [forward_rows] writes
    the outputs of a batch of rows and [backward_rows] takes the same
    input rows back, so one layer object serves every row of a batch
    (gradients accumulate until [zero_grad]). *)

type t = {
  w : Tensor.mat;
  b : Tensor.vec;
  gw : Tensor.mat;
  gb : Tensor.vec;
  in_dim : int;
  out_dim : int;
}

let create (rng : Rng.t) ~in_dim ~out_dim : t =
  {
    w = Tensor.mat_xavier rng out_dim in_dim;
    b = Tensor.vec_create out_dim;
    gw = Tensor.mat_create out_dim in_dim;
    gb = Tensor.vec_create out_dim;
    in_dim;
    out_dim;
  }

(** [y(r) = W x(r) + b] over [rows] row-major rows of [x] into [y]
    (preallocated scratch; see {!Batch}). *)
let forward_rows (l : t) ~(x : Batch.buf) ~(y : Batch.buf) ~(rows : int) :
    unit =
  Batch.dense_rows ~w:l.w ~b:l.b ~x ~y ~rows

(** Accumulate the gradients of [rows] rows, in row order, and write each
    row's dL/dx into [dx]; [dy] holds dL/dy.  Row r reads input row
    [xix.(r)] of [x] ([r] without [xix]). *)
let backward_rows ?xix (l : t) ~(x : Batch.buf) ~(dy : Batch.buf)
    ~(dx : Batch.buf) ~(rows : int) : unit =
  Batch.dense_bwd_rows ~w:l.w ~gw:l.gw ~gb:l.gb ~x ?xix ~dy ~dx ~rows ()

let zero_grad (l : t) : unit =
  Tensor.mat_fill_zero l.gw;
  Tensor.fill_zero l.gb

(** Parameters and their gradients, flattened for the optimizer. *)
let params (l : t) : (Tensor.vec * Tensor.vec) list =
  [ (l.w.Tensor.data, l.gw.Tensor.data); (l.b, l.gb) ]
