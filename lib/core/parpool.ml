(** Multicore parallel evaluation pool.

    Every oracle client — PPO rollouts, brute force, NNS and decision-tree
    labelling, the experiment drivers — fans one program (or one corpus)
    out into dozens of independent compile-and-measure evaluations.  After
    the front-end cache (PR 1) those evaluations dominate wall time and
    share no data except the content-addressed caches, so they parallelize
    across OCaml 5 domains with no algorithmic change.  NeuroVectorizer
    itself leans on Ray/RLlib for exactly this measurement fan-out; this
    module is the native equivalent.

    {b Scheduling.}  [map] self-schedules: worker domains (plus the
    calling domain) repeatedly claim the next unclaimed index from a
    shared atomic counter — work stealing from a single shared queue — so
    an item that takes 10x longer than its siblings never idles the other
    domains.  Results land in a per-index slot, so output order is always
    input order regardless of completion order.

    {b Determinism contract.}  The pool never changes what is computed,
    only where: callers must ensure each item is a pure function of its
    input (the rest of [lib/core] guarantees this — content-addressed
    caches are mutex-sharded, fault injection and timing noise are keyed
    by (seed, measurement point, sample index), counts are atomic, and
    {!Stats} merges per-domain phase times and failures).  Under that
    contract a run at [--jobs N] is bit-identical to [--jobs 1], just
    faster.

    {b Nesting.}  A [map] issued from inside a pool worker runs serially
    in that worker: the corpus-level fan-out already owns the domains, and
    nested spawning would oversubscribe the machine.

    {b Exceptions and cancellation.}  If an item raises, a cooperative
    cancel flag stops the pool from {e claiming} further items: queued
    work that would only be executed-then-discarded is skipped (the
    supervision layer retries {e inside} an item, so an exception that
    reaches the pool is final).  Items already in flight on other workers
    run to completion — cancellation never preempts work mid-measurement.
    After all workers drain, the lowest-indexed exception that was
    actually raised is re-raised (with its backtrace): items are claimed
    in index order, so every skipped item has a higher index than some
    failing item, and the re-raised exception is the same one a serial
    left-to-right run would have surfaced first.

    Pool size: [set_jobs]/[with_jobs] (the CLI's [--jobs]) wins, then the
    [NEUROVEC_JOBS] environment variable, then
    [Domain.recommended_domain_count ()], one domain per core (the pool
    size counts the calling domain: [map] spawns [jobs - 1] workers);
    always at least 1.  An explicit size is never clamped to the core
    count, but the CLI and the bench harness print a one-line stderr note
    ({!oversubscription_note}) when it exceeds it.  [jobs () = 1] is the
    exact serial path: no domain is spawned and no atomic is touched. *)

let override : int option ref = ref None

(** Force the pool size (1 = serial); overrides [NEUROVEC_JOBS]. *)
let set_jobs (n : int) : unit = override := Some (max 1 n)

(* read at module initialization, not lazily: nested maps resolve the
   pool size inside worker domains, and a [lazy] forced by two domains at
   once raises [CamlinternalLazy.Undefined] *)
let env_jobs : int option =
  match Sys.getenv_opt "NEUROVEC_JOBS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some n
      | _ ->
          (* don't mask a typo as "serial" *)
          Printf.eprintf
            "neurovec: unparseable NEUROVEC_JOBS=%S, using the default\n%!" s;
          None)

let default_jobs : int = max 1 (Domain.recommended_domain_count ())

(** The resolved pool size for the next [map]. *)
let jobs () : int =
  match !override with
  | Some n -> n
  | None -> Option.value env_jobs ~default:default_jobs

(** The note for a pool of [jobs] domains on a host with [cores] cores:
    [Some] when the domains outnumber the cores. *)
let oversubscription_note ~(jobs : int) ~(cores : int) : string option =
  if jobs <= cores then None
  else
    Some
      (Printf.sprintf
         "%d pool domains on %d cores: the pool's domains will share cores" jobs
         cores)

(** Print {!oversubscription_note} for an explicitly requested pool size
    as one stderr line prefixed by [prog]; a run that asked for no size
    prints nothing. *)
let warn_oversubscribed ~(prog : string) : unit =
  match (match !override with Some _ as n -> n | None -> env_jobs) with
  | None -> ()
  | Some jobs ->
      let cores = Domain.recommended_domain_count () in
      Option.iter
        (Printf.eprintf "%s: %s\n%!" prog)
        (oversubscription_note ~jobs ~cores)

(** Run [f] with the pool size forced to [n], restoring the previous
    setting after (main domain only; used by benches to compare a serial
    and a parallel run of the same sweep). *)
let with_jobs (n : int) (f : unit -> 'a) : 'a =
  let saved = !override in
  set_jobs n;
  Fun.protect ~finally:(fun () -> override := saved) f

(* true while executing inside a pool worker: nested maps degrade to the
   serial path instead of spawning domains the corpus-level fan-out
   already owns *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(** Spawn a domain that runs [f] flagged as a pool worker, so maps nested
    in it run serially: [map]'s workers, and the serve daemon's
    long-lived miss workers. *)
let spawn_worker (f : unit -> 'a) : 'a Domain.t =
  Domain.spawn (fun () ->
      Domain.DLS.set in_worker true;
      f ())

(** [map f xs]: apply [f] to every element, fanning across the pool;
    results are in input order.  Serial (and allocation-free beyond
    [Array.map]) when the pool size is 1, the input has fewer than two
    elements, or the caller is itself a pool worker. *)
let map ?jobs:j (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let j = match j with Some j -> max 1 j | None -> jobs () in
  if j <= 1 || n <= 1 || Domain.DLS.get in_worker then Array.map f xs
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    (* set on the first failure: workers stop claiming new items, so
       queued work behind a fatal error is skipped instead of executed
       and then discarded *)
    let cancelled = Atomic.make false in
    let run () =
      let rec loop () =
        if not (Atomic.get cancelled) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <-
              Some
                (match f xs.(i) with
                | y -> Ok y
                | exception e ->
                    Atomic.set cancelled true;
                    Error (e, Printexc.get_raw_backtrace ()));
            loop ()
          end
        end
      in
      loop ()
    in
    let spawned =
      Array.init (min (j - 1) (n - 1)) (fun _ -> spawn_worker run)
    in
    (* the calling domain participates; it keeps its own DLS state but
       flags itself as a worker so f's nested maps stay serial *)
    Domain.DLS.set in_worker true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker false) run;
    Array.iter Domain.join spawned;
    (* re-raise the lowest-indexed exception that actually ran — claims
       happen in index order, so any skipped (None) slot sits behind a
       failure and serial execution would never have reached it *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function
        | Some (Ok y) -> y
        | None -> assert false (* no failure, so every index was claimed *)
        | Some (Error _) -> assert false (* re-raised above *))
      results
  end

(** [map] over a list (result order = input order). *)
let map_list ?jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (map ?jobs f (Array.of_list xs))
