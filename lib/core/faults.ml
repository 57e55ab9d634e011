(** Deterministic, seeded fault injection for the measurement pipeline.

    The paper's reward is a *measured* execution time on real hardware:
    compiles occasionally fail or blow the time budget, runs trap or hit
    resource limits, and every timing sample carries multiplicative noise
    with the occasional heavy-tailed spike (a context switch, a frequency
    transition).  This module reproduces those conditions on demand so the
    training loop, the reward oracle and the experiment drivers can be
    hardened against them — and *tested* against them, because every fault
    is a deterministic function of the spec seed.

    Two kinds of randomness, deliberately different:

    - {b Discrete faults} (compile failure, runtime trap, fuel exhaustion,
      compile-time spike) are keyed by [hash(seed, key, kind)], where [key]
      identifies the (program, decision) being evaluated.  The same seed
      and key always give the same outcome, independent of evaluation
      order, so a fault is a persistent property of a measurement point —
      exactly like a program that deterministically fails to compile under
      a specific pragma — and cached rewards never disagree with a re-run.
    - {b Timing noise} is keyed by [hash(seed, key, sample)], where
      [sample] numbers the median-of-k resamples of one measurement point:
      repeated measurements of the same point differ (that is the point:
      the oracle must median them away) while each individual sample is a
      pure function of the spec — so a run at a fixed seed is reproducible
      end to end {e independent of evaluation order}, which is what lets
      {!Parpool} fan measurements across domains without changing a single
      cached reward bit.
    - {b Transient faults} are keyed by [hash(seed, key, attempt)]: the
      same measurement point can fail on its first attempt and succeed on
      a retry (a flaky testbed node, an NFS hiccup), and whether it does
      is a pure function of the spec — so the supervisor's
      retry-with-backoff loop converges to the same outcome at any pool
      size.  Contrast with the discrete faults above, which are persistent
      properties of the point: retrying them is pointless and the
      supervisor sends them straight to the penalty path.
    - {b Stalls} ([hash(seed, key, "stall")]) mark evaluations that would
      hang past any deadline (a wedged testbed); {!Pipeline} turns them
      into a wait at [Supervisor.stall_point] that ends at the deadline,
      surfacing the [Hung] reward failure.

    Off by default ([none]); enable via [Pipeline.options] or the
    [NEUROVEC_FAULTS] environment variable, e.g.
    [NEUROVEC_FAULTS="seed=7,compile=0.05,trap=0.03,fuel=0.02,timeout=0.02,stall=0.02,transient=0.1,noise=0.1,tail=0.02"]. *)

type fault = Compile_fault | Trap_fault | Fuel_fault

type spec = {
  f_seed : int;
  p_compile : float;  (** probability an evaluation fails to compile *)
  p_trap : float;  (** probability the measured run traps *)
  p_fuel : float;  (** probability the run exhausts its interpreter fuel *)
  p_timeout : float;
      (** probability compile time spikes far past the 10x budget *)
  noise : float;  (** sigma of multiplicative lognormal timing noise *)
  p_tail : float;  (** per-sample probability of a heavy-tailed spike *)
  p_stall : float;
      (** probability an evaluation hangs until the watchdog cancels it *)
  p_transient : float;
      (** per-attempt probability of a retryable transient failure *)
  p_miscompile : float;
      (** probability the transform silently miscompiles a point — only
          observable when translation validation ([--verify]) runs, which
          then refutes the point with a counterexample *)
  p_disk_full : float;
      (** per-attempt probability a durable write fails with ENOSPC
          before any byte lands (see {!Fsio}) *)
  p_disk_err : float;  (** per-attempt probability of an EIO-style failure *)
  p_short_write : float;
      (** per-attempt probability a durable write tears: a prefix lands
          on disk, then the error surfaces *)
  p_nan_grad : float;
      (** per-update probability a gradient is poisoned to NaN right
          before the optimizer step — the numeric-health sentinels in
          {!Rl.Ppo.train} must catch it and roll back *)
}

(** Stands in for an interpreter/testbed resource limit; converted to the
    [Fuel_exhausted] reward failure by {!Reward}. *)
exception Fuel_exhausted of string

(** A retryable testbed failure: re-running the same evaluation may
    succeed ({!transient_hit} is keyed by the attempt index).  Raised by
    {!Pipeline} before any work happens; caught by the supervisor's retry
    loop, and converted to the [Transient] reward failure once the retry
    budget is exhausted. *)
exception Transient of string

let create ?(seed = 0) ?(compile = 0.0) ?(trap = 0.0) ?(fuel = 0.0)
    ?(timeout = 0.0) ?(noise = 0.0) ?(tail = 0.0) ?(stall = 0.0)
    ?(transient = 0.0) ?(miscompile = 0.0) ?(disk_full = 0.0)
    ?(disk_err = 0.0) ?(short_write = 0.0) ?(nan_grad = 0.0) () : spec =
  { f_seed = seed; p_compile = compile; p_trap = trap; p_fuel = fuel;
    p_timeout = timeout; noise; p_tail = tail; p_stall = stall;
    p_transient = transient; p_miscompile = miscompile;
    p_disk_full = disk_full; p_disk_err = disk_err;
    p_short_write = short_write; p_nan_grad = nan_grad }

let none = create ()

let noisy (s : spec) : bool = s.noise > 0.0 || s.p_tail > 0.0

let discrete (s : spec) : bool =
  s.p_compile > 0.0 || s.p_trap > 0.0 || s.p_fuel > 0.0 || s.p_timeout > 0.0
  || s.p_stall > 0.0 || s.p_transient > 0.0 || s.p_miscompile > 0.0

let active (s : spec) : bool = discrete s || noisy s

(* the disk and nan_grad knobs are deliberately excluded from [discrete],
   [active] and [descriptor]: they perturb the *durability and training*
   layers, never a measured reward, so reward-cache keys (and the golden
   files keyed by them) must not change when they are turned on *)
let disk_active (s : spec) : bool =
  s.p_disk_full > 0.0 || s.p_disk_err > 0.0 || s.p_short_write > 0.0

(** Cache-key fragment; empty for an inactive spec so fault-free runs keep
    their original reward-cache keys.  The stall/transient rates only
    appear when nonzero, so specs that predate them keep their keys. *)
let descriptor (s : spec) : string =
  if not (active s) then ""
  else
    Printf.sprintf "|faults=%d:%g,%g,%g,%g,%g,%g%s%s" s.f_seed s.p_compile
      s.p_trap s.p_fuel s.p_timeout s.noise s.p_tail
      (if s.p_stall > 0.0 || s.p_transient > 0.0 then
         Printf.sprintf ",st=%g,tr=%g" s.p_stall s.p_transient
       else "")
      (if s.p_miscompile > 0.0 then Printf.sprintf ",mc=%g" s.p_miscompile
       else "")

(* the digest input of one draw: [seed] NUL [key] NUL [salt], the bytes
   [Printf.sprintf "%d\x00%s\x00%s"] builds, in one allocation *)
let draw_input (seed : int) (key : string) (salt : string) : string =
  let sd = string_of_int seed in
  let ls = String.length sd and lk = String.length key in
  let b = Bytes.create (ls + lk + String.length salt + 2) in
  Bytes.blit_string sd 0 b 0 ls;
  Bytes.set b ls '\x00';
  Bytes.blit_string key 0 b (ls + 1) lk;
  Bytes.set b (ls + lk + 1) '\x00';
  Bytes.blit_string salt 0 b (ls + lk + 2) (String.length salt);
  Bytes.unsafe_to_string b

(** Uniform in [0, 1) as a pure function of (seed, key, salt). *)
let hash01 (s : spec) ~(key : string) ~(salt : string) : float =
  let d = Digest.string (draw_input s.f_seed key salt) in
  let acc = ref 0.0 in
  for i = 0 to 6 do
    acc := (!acc *. 256.0) +. float_of_int (Char.code d.[i])
  done;
  !acc /. (256.0 ** 7.0)

(** The discrete fault (if any) injected into the evaluation identified by
    [key]; deterministic per (seed, key). *)
let pick (s : spec) ~(key : string) : fault option =
  if s.p_compile > 0.0 && hash01 s ~key ~salt:"compile" < s.p_compile then
    Some Compile_fault
  else if s.p_trap > 0.0 && hash01 s ~key ~salt:"trap" < s.p_trap then
    Some Trap_fault
  else if s.p_fuel > 0.0 && hash01 s ~key ~salt:"fuel" < s.p_fuel then
    Some Fuel_fault
  else None

(** Whether the evaluation identified by [key] suffers a transient fault
    on its [attempt]-th try (0-based).  Pure in (seed, key, attempt):
    unlike {!pick}'s persistent faults, the same point can fail at
    attempt 0 and succeed at attempt 1, so a deterministic retry loop can
    recover — and recovers identically at any pool size. *)
let transient_hit (s : spec) ~(key : string) ~(attempt : int) : bool =
  s.p_transient > 0.0
  && hash01 s ~key ~salt:("transient\x00" ^ string_of_int attempt)
     < s.p_transient

(** Whether the transform of the point identified by [key] is sabotaged —
    the translation validator deterministically corrupts one memory cell of
    the transformed run before comparing, standing in for a real compiler
    bug.  Keyed by the (program, applied plan) content key rather than the
    per-action fault key, so every action that clamps to the same applied
    plan shares one verdict, exactly like an honest miscompile would. *)
let miscompile_hit (s : spec) ~(key : string) : bool =
  s.p_miscompile > 0.0 && hash01 s ~key ~salt:"miscompile" < s.p_miscompile

(** Whether the evaluation identified by [key] stalls (would hang past any
    deadline); deterministic per (seed, key), like {!pick}'s faults. *)
let stall_hit (s : spec) ~(key : string) : bool =
  s.p_stall > 0.0 && hash01 s ~key ~salt:"stall" < s.p_stall

(** Whether the gradient of policy update [update] is poisoned to NaN.
    Pure in (seed, update, rollbacks): update indices are
    schedule-independent, so the sentinel trips at the identical update at
    any pool size — and keying by the rollback count means the {e replay}
    of a poisoned update after the automatic rollback is clean, so
    recovery converges instead of re-tripping forever. *)
let nan_grad_hit (s : spec) ~(update : int) ~(rollbacks : int) : bool =
  s.p_nan_grad > 0.0
  && hash01 s
       ~key:(Printf.sprintf "update=%d" update)
       ~salt:(Printf.sprintf "nan_grad\x00%d" rollbacks)
     < s.p_nan_grad

(** Install the spec's disk-fault layer into {!Fsio}, so every durable
    writer (checkpoint, reward journal, serve store) sees its per-attempt
    ENOSPC/EIO/short-write failures.  Each decision is pure in
    (seed, operation, file basename, attempt index): deterministic at any
    pool size, and transient — the same logical write can fail now and
    succeed on retry.  A spec with no disk knobs uninstalls the layer. *)
let install_disk (s : spec) : unit =
  if not (disk_active s) then Fsio.set_injector None
  else
    Fsio.set_injector
      (Some
         (fun ~op ~path ~index ->
           let key =
             Printf.sprintf "%s\x00%s\x00%d" op (Filename.basename path)
               index
           in
           if s.p_disk_full > 0.0 && hash01 s ~key ~salt:"disk_full" < s.p_disk_full
           then Some Fsio.Disk_full
           else if
             s.p_disk_err > 0.0 && hash01 s ~key ~salt:"disk_err" < s.p_disk_err
           then Some Fsio.Disk_err
           else if
             s.p_short_write > 0.0
             && hash01 s ~key ~salt:"short_write" < s.p_short_write
           then Some Fsio.Short_write
           else None))

(** Multiplier on simulated compile time; 25x (deterministically per key)
    with probability [p_timeout], which sails past the oracle's 10x budget
    and triggers the paper's -9 penalty path. *)
let timeout_multiplier (s : spec) ~(key : string) : float =
  if s.p_timeout > 0.0 && hash01 s ~key ~salt:"timeout" < s.p_timeout then
    25.0
  else 1.0

(** Multiplier on one timing sample: lognormal noise, plus a Pareto-ish
    spike (up to ~80x) with probability [p_tail].  Pure in
    (seed, key, sample): the [sample] index distinguishes the median-of-k
    resamples of one measurement point, so samples differ from each other
    but never depend on what other domains measured in between. *)
let noise_factor (s : spec) ~(key : string) ~(sample : int) : float =
  if not (noisy s) then 1.0
  else begin
    let d =
      Digest.string
        (draw_input s.f_seed key ("noise\x00" ^ string_of_int sample))
    in
    let seed = ref 0 in
    for i = 0 to 6 do
      seed := (!seed lsl 8) lor Char.code d.[i]
    done;
    let rng = Nn.Rng.create !seed in
    let f =
      if s.noise > 0.0 then exp (s.noise *. Nn.Rng.normal rng) else 1.0
    in
    if s.p_tail > 0.0 && Nn.Rng.float rng < s.p_tail then
      f *. (1.0 +. (4.0 /. max 0.05 (Nn.Rng.float rng)))
    else f
  end

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

(** Parse a ["k=v,k=v"] spec string (keys: seed, compile, trap, fuel,
    timeout, noise, tail, stall, transient, miscompile, disk_full,
    disk_err, short_write, nan_grad).  Unknown keys and unparseable
    values are reported in the warnings list and otherwise ignored. *)
let of_string (text : string) : spec * string list =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  let spec =
    List.fold_left
      (fun s field ->
        let field = String.trim field in
        if field = "" then s
        else
          match String.index_opt field '=' with
          | None ->
              warn "ignoring field %S (expected key=value)" field;
              s
          | Some i -> (
              let k = String.sub field 0 i in
              let v =
                String.sub field (i + 1) (String.length field - i - 1)
              in
              let fl () =
                match float_of_string_opt v with
                | Some f when f >= 0.0 -> Some f
                | _ ->
                    warn "ignoring %s=%S (expected a non-negative number)" k v;
                    None
              in
              match k with
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some n -> { s with f_seed = n }
                  | None ->
                      warn "ignoring seed=%S (expected an integer)" v;
                      s)
              | "compile" -> (
                  match fl () with
                  | Some f -> { s with p_compile = f }
                  | None -> s)
              | "trap" -> (
                  match fl () with Some f -> { s with p_trap = f } | None -> s)
              | "fuel" -> (
                  match fl () with Some f -> { s with p_fuel = f } | None -> s)
              | "timeout" -> (
                  match fl () with
                  | Some f -> { s with p_timeout = f }
                  | None -> s)
              | "noise" -> (
                  match fl () with Some f -> { s with noise = f } | None -> s)
              | "tail" -> (
                  match fl () with Some f -> { s with p_tail = f } | None -> s)
              | "stall" -> (
                  match fl () with
                  | Some f -> { s with p_stall = f }
                  | None -> s)
              | "transient" -> (
                  match fl () with
                  | Some f -> { s with p_transient = f }
                  | None -> s)
              | "miscompile" -> (
                  match fl () with
                  | Some f -> { s with p_miscompile = f }
                  | None -> s)
              | "disk_full" -> (
                  match fl () with
                  | Some f -> { s with p_disk_full = f }
                  | None -> s)
              | "disk_err" -> (
                  match fl () with
                  | Some f -> { s with p_disk_err = f }
                  | None -> s)
              | "short_write" -> (
                  match fl () with
                  | Some f -> { s with p_short_write = f }
                  | None -> s)
              | "nan_grad" -> (
                  match fl () with
                  | Some f -> { s with p_nan_grad = f }
                  | None -> s)
              | _ ->
                  warn "ignoring unknown key %S" k;
                  s))
      none
      (String.split_on_char ',' text)
  in
  (spec, List.rev !warnings)

(** The spec selected by [NEUROVEC_FAULTS] ({!none} when unset); parse
    warnings — unknown keys, unparseable values — go to stderr rather than
    being silently swallowed, and are printed once per process (matching
    the [NEUROVEC_SCALE] behaviour) even when every sweep re-reads the
    spec.  The environment is read on first use and memoized. *)
let env_spec : spec Lazy.t =
  lazy
    (match Sys.getenv_opt "NEUROVEC_FAULTS" with
    | None | Some "" -> none
    | Some text ->
        let spec, warnings = of_string text in
        List.iter
          (fun w -> Printf.eprintf "neurovec: NEUROVEC_FAULTS: %s\n%!" w)
          warnings;
        spec)

let of_env () : spec = Lazy.force env_spec
