(** Optimizers over flat (param, grad) pairs: SGD and Adam. *)

type params = (Tensor.vec * Tensor.vec) list

type t =
  | Sgd of { lr : float }
  | Adam of {
      lr : float;
      beta1 : float;
      beta2 : float;
      eps : float;
      mutable step : int;
      mutable state : (Tensor.vec * Tensor.vec) list option;
          (** (m, v) per param, lazily matched to the param list *)
    }

let sgd ~lr = Sgd { lr }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr () =
  Adam { lr; beta1; beta2; eps; step = 0; state = None }

let lr = function Sgd { lr } -> lr | Adam { lr; _ } -> lr

(** The same optimizer with its learning rate replaced; Adam keeps its
    step count and accumulated moments (shared, not copied).  Used by the
    training sentinels' rollback backoff, which halves the rate without
    restarting the moment estimates. *)
let with_lr (t : t) (lr : float) : t =
  match t with
  | Sgd _ -> Sgd { lr }
  | Adam a -> Adam { a with lr }

exception Bad_state of string
(** Adam's lazily-created moment vectors are matched to the parameter
    list purely by position; if the shapes no longer line up (a layer was
    added, removed or resized after the optimizer state was created —
    e.g. a resumed checkpoint across a model edit), continuing would
    silently corrupt the moments.  Surface it like a bad checkpoint
    instead. *)

(* the moment vectors must pair 1:1 with the params, by count and by
   length — a mismatch means the model changed under the optimizer *)
let check_state (ps : params) (state : (Tensor.vec * Tensor.vec) list) : unit =
  let np = List.length ps and ns = List.length state in
  if np <> ns then
    raise
      (Bad_state
         (Printf.sprintf
            "Optim.step: %d parameter tensors but %d Adam moment slots — \
             the model's shape changed after the optimizer state was \
             created (resumed checkpoint across a layer edit?)"
            np ns));
  List.iteri
    (fun i ((p, _), (m, _)) ->
      if Array.length p <> Array.length m then
        raise
          (Bad_state
             (Printf.sprintf
                "Optim.step: parameter %d has %d elements but its Adam \
                 moments have %d — the model's shape changed after the \
                 optimizer state was created (resumed checkpoint across a \
                 layer edit?)"
                i (Array.length p) (Array.length m))))
    (List.combine ps state)

(** One update step. [scale] divides gradients (e.g. by batch size). *)
let step ?(scale = 1.0) (t : t) (ps : params) : unit =
  match t with
  | Sgd { lr } ->
      List.iter
        (fun (p, g) ->
          for i = 0 to Array.length p - 1 do
            p.(i) <- p.(i) -. (lr *. g.(i) /. scale)
          done)
        ps
  | Adam a ->
      let state =
        match a.state with
        | Some s -> s
        | None ->
            let s =
              List.map
                (fun (p, _) ->
                  (Tensor.vec_create (Array.length p),
                   Tensor.vec_create (Array.length p)))
                ps
            in
            a.state <- Some s;
            s
      in
      check_state ps state;
      a.step <- a.step + 1;
      let t_ = float_of_int a.step in
      let bc1 = 1.0 -. (a.beta1 ** t_) and bc2 = 1.0 -. (a.beta2 ** t_) in
      List.iter2
        (fun (p, g) (m, v) ->
          for i = 0 to Array.length p - 1 do
            let gi = g.(i) /. scale in
            m.(i) <- (a.beta1 *. m.(i)) +. ((1.0 -. a.beta1) *. gi);
            v.(i) <- (a.beta2 *. v.(i)) +. ((1.0 -. a.beta2) *. gi *. gi);
            let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
            p.(i) <- p.(i) -. (a.lr *. mhat /. (sqrt vhat +. a.eps))
          done)
        ps state
