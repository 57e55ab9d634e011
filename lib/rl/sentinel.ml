(** Numeric-health sentinels for the training loop.

    A long PPO run can die silently: one NaN gradient poisons the Adam
    moments and every weight after it, the policy's entropy can collapse
    to a point mass that never explores again, a bad minibatch can push
    the new policy arbitrarily far from the one that collected the batch
    (approx-KL blow-up), and a broken reward oracle can drift the reward
    scale by orders of magnitude.  None of these raise; they just turn
    the remaining training budget into garbage.

    This module is the watchdog for those {e learning dynamics}: after
    every policy update {!Ppo.train} runs {!check} over the loss, the
    entropy, the approx-KL, the reward scale, every weight and gradient,
    and the optimizer moments.  A trip does not kill the run — it
    triggers the checkpoint-lineage rollback in {!Ppo.train}: restore the
    newest known-good state, apply the deterministic {!backoff} (halve
    the learning rate, tighten the PPO clip), and continue.  The backoff
    schedule is a pure function of (seed, rollback count), so a run that
    trips recovers identically at any rollout pool size, and a run killed
    mid-recovery converges to the same trajectory on resume.

    The non-finite checks are always on (they cannot false-positive);
    the entropy / KL / drift thresholds default to disabled ([0.0]) so
    existing runs are bit-identical until a threshold is opted into.

    Trips and rollbacks are counted in the process-wide {!Counter}
    registry ({!trips}, {!rollbacks}). *)

type config = {
  ent_floor : float;
      (** trip when policy entropy falls below this; 0 disables *)
  kl_max : float;  (** trip when approx-KL exceeds this; 0 disables *)
  drift_max : float;
      (** trip when |mean reward| exceeds this scale; 0 disables *)
  max_rollbacks : int;  (** give up ({!Unrecoverable}) past this many *)
  backoff_seed : int;  (** seeds the deterministic backoff schedule *)
  inject_nan : update:int -> rollbacks:int -> bool;
      (** fault hook: poison one gradient cell of this update (keyed by
          the rollback count so the post-rollback replay is clean);
          wired to [Faults.nan_grad_hit] by the core library *)
}

let default =
  { ent_floor = 0.0; kl_max = 0.0; drift_max = 0.0; max_rollbacks = 8;
    backoff_seed = 0; inject_nan = (fun ~update:_ ~rollbacks:_ -> false) }

(** Why the sentinel tripped, for the lineage journal and the error
    message when recovery is exhausted. *)
type trip =
  | Non_finite of string  (** which tensor / statistic went NaN or Inf *)
  | Entropy_collapse of float
  | Kl_blowup of float
  | Reward_drift of float

let describe = function
  | Non_finite what -> Printf.sprintf "non-finite %s" what
  | Entropy_collapse e -> Printf.sprintf "entropy collapse (%g)" e
  | Kl_blowup kl -> Printf.sprintf "approx-KL blow-up (%g)" kl
  | Reward_drift r -> Printf.sprintf "reward-scale drift (%g)" r

exception Unrecoverable of string
(** The sentinel tripped more than [max_rollbacks] times: the run cannot
    make progress even with the backoff applied.  Carries the last trip's
    description. *)

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

(** Numeric-health trips, and the automatic checkpoint rollbacks that
    recovered from them. *)
let trips = Counter.make "sentinel.trips"
let rollbacks = Counter.make "sentinel.rollbacks"

(* ------------------------------------------------------------------ *)
(* Health checks                                                        *)
(* ------------------------------------------------------------------ *)

let vec_finite (v : float array) : bool =
  Array.for_all Float.is_finite v

(** Every weight and gradient finite. *)
let params_finite (ps : Nn.Optim.params) : bool =
  List.for_all (fun (p, g) -> vec_finite p && vec_finite g) ps

(** Optimizer moments finite (SGD is stateless, trivially healthy). *)
let optim_finite (o : Nn.Optim.t) : bool =
  match o with
  | Nn.Optim.Sgd _ -> true
  | Nn.Optim.Adam { state = None; _ } -> true
  | Nn.Optim.Adam { state = Some st; _ } ->
      List.for_all (fun (m, v) -> vec_finite m && vec_finite v) st

(** Post-update health verdict: [None] is healthy, [Some trip] must
    trigger recovery.  Non-finite checks run unconditionally; the
    threshold checks only when their knob is enabled. *)
let check (cfg : config) ~(params : Nn.Optim.params) ~(optim : Nn.Optim.t)
    ~(loss : float) ~(entropy : float) ~(reward_mean : float)
    ~(approx_kl : float) : trip option =
  if not (Float.is_finite loss) then Some (Non_finite "loss")
  else if not (Float.is_finite entropy) then Some (Non_finite "entropy")
  else if not (Float.is_finite reward_mean) then
    Some (Non_finite "reward mean")
  else if not (Float.is_finite approx_kl) then Some (Non_finite "approx-KL")
  else if not (params_finite params) then
    Some (Non_finite "weights or gradients")
  else if not (optim_finite optim) then Some (Non_finite "Adam moments")
  else if cfg.ent_floor > 0.0 && entropy < cfg.ent_floor then
    Some (Entropy_collapse entropy)
  else if cfg.kl_max > 0.0 && approx_kl > cfg.kl_max then
    Some (Kl_blowup approx_kl)
  else if cfg.drift_max > 0.0 && Float.abs reward_mean > cfg.drift_max then
    Some (Reward_drift reward_mean)
  else None

(* ------------------------------------------------------------------ *)
(* Deterministic backoff                                                *)
(* ------------------------------------------------------------------ *)

type backoff = {
  lr_scale : float;  (** multiplier on the run's base learning rate *)
  clip_scale : float;  (** multiplier on the run's base PPO clip *)
}

(** The cumulative backoff after [rollbacks] recoveries: the learning
    rate is halved per rollback (with a small seeded nudge so symmetric
    failure loops cannot repeat exactly), the clip tightened by 0.8 per
    rollback down to a floor of 0.25x.  Pure in
    [hash(seed, rollback_count)] — no clock, no pool size, no evaluation
    order — so jobs N and jobs 1 back off identically, and a resumed run
    reconstructs the same schedule from the persisted rollback count. *)
let backoff ~(seed : int) ~(rollbacks : int) : backoff =
  if rollbacks <= 0 then { lr_scale = 1.0; clip_scale = 1.0 }
  else begin
    let d =
      Digest.string
        (Printf.sprintf "neurovec-backoff\x00%d\x00%d" seed rollbacks)
    in
    let u = float_of_int (Char.code d.[0]) /. 255.0 in
    let r = float_of_int rollbacks in
    { lr_scale = (0.5 ** r) *. (0.75 +. (0.5 *. u));
      clip_scale = Float.max 0.25 (0.8 ** r) }
  end
