(** Named process-global event counters.

    Every count the stack keeps — cache hits and misses, failures,
    retries, quarantines, requests shed, VM steps — is a {!t}: an
    [int Atomic.t] registered under a unique name when it is made.  This
    module is the one implementation of such a count: how it is updated,
    read and reset is decided here and nowhere else.

    {b Domain safety.}  Every update is one atomic operation, so
    increments from any number of domains are never lost, and sums (and
    high-water marks) are exact and independent of the schedule: a
    [--jobs N] run counts exactly what a [--jobs 1] run counts.

    {b Registered.}  {!reset_all} zeroes every counter in the process, so
    scoping a measurement needs no list of who counts what. *)

type t = { name : string; cell : int Atomic.t }

let registry_lock = Mutex.create ()
let registry : t list ref = ref []

(** A new counter at 0, registered under [name], which must be unique in
    the process. *)
let make (name : string) : t =
  let c = { name; cell = Atomic.make 0 } in
  Mutex.protect registry_lock (fun () ->
      if List.exists (fun c' -> c'.name = name) !registry then
        invalid_arg ("Counter.make: duplicate counter " ^ name);
      registry := c :: !registry);
  c

let incr (c : t) : unit = Atomic.incr c.cell
let add (c : t) (n : int) : unit = ignore (Atomic.fetch_and_add c.cell n)

(** Raise [c] to [n] when [n] is larger: a high-water mark.  A maximum is
    commutative, so racing calls leave the largest value offered since the
    last reset. *)
let rec max_to (c : t) (n : int) : unit =
  let cur = Atomic.get c.cell in
  if n > cur && not (Atomic.compare_and_set c.cell cur n) then max_to c n

let get (c : t) : int = Atomic.get c.cell

(** Zero every registered counter (only between parallel regions: an
    increment racing the reset may land on either side of it). *)
let reset_all () : unit =
  Mutex.protect registry_lock (fun () ->
      List.iter (fun c -> Atomic.set c.cell 0) !registry)
