(** The [neurovec serve] daemon: a long-lived vectorization service.

    One process loads a trained checkpoint once and answers "vectorize
    this program" requests for as long as it lives.  A {e hit}, a request
    whose reply the store already holds, is answered at admission.  A
    {e miss}, one whose reply it does not hold, goes to the miss
    {e workers}: [--jobs] long-lived domains that {!create}/{!start}
    spawn once and {!stop} joins.

    {v
    clients --> submit --+-- store hit: answered in submit
                         |
                         +-- repeat of an unanswered miss: joins its
                         |   waiters, measured once
                         |
                         '-- miss --> [bounded queue] --> worker 1..jobs
                                     takes every queued miss, up to
                                     max_batch, as soon as it is free
                                     |  A. store re-probe + front end
                                     |  B. one predict_batch over every
                                     |     site of the take, context
                                     |     rows cached per model
                                     |  C. compile/measure/verify each
                                     |     miss, supervised
                                     '- D. store put + reply as soon as
                                           that miss is measured
    v}

    Session threads on the main domain keep admission, hits and I/O; each
    worker runs phases A–D on its own domain.  So a hit never waits
    behind a miss's compute, and one client's miss waits for another
    client's only when both queued while every worker was busy.  There is
    no batch window: such misses share the next free worker's take, and
    its forward pass (phase B).  Workers are flagged as pool workers, so
    maps nested in them run serially.  Every answer stays bit-identical
    to the serial [neurovec predict] CLI.

    {b Robustness layers}, outermost first:

    - {e Load shedding.}  The queue is bounded: when [max_queue] requests
      wait for a worker, a miss is answered [`Overloaded] immediately — an
      explicit, structured reply, never a silent drop
      ({!Neurovec.Stats.serve_shed} counts them).  A stored reply is
      still answered: shedding protects compute, and a hit uses none.
    - {e Circuit breaker}, per client: after [breaker_threshold]
      consecutive failures the client's breaker opens and its next
      [breaker_cooldown] requests are shed with [`Breaker_open]; the
      request after that is a half-open probe — success closes the
      breaker, failure re-opens it, and a probe shed by the queue bound
      or the drain passes the probe to the client's next request.  One
      pathological client cannot keep the workers busy failing.  Counts,
      not clocks, so the behaviour is deterministic under test.
    - {e Per-client order.}  A client's misses resolve in its admission
      order, and its breaker folds their outcomes in that order: a reply
      measured ahead of an earlier one is parked, never waited for by
      its worker.  Hits and sheds resolve at admission.  Replies to
      different clients are independent.
    - {e Supervision}, per request: phase C runs under
      {!Neurovec.Supervisor.with_retries} (deterministic retry of
      transient faults, [`Transient] once the budget is exhausted), and
      a stalled evaluation waits out the deadline at
      {!Neurovec.Supervisor.stall_point} and dies as [`Hung].
    - {e Typed failure replies.}  Malformed frames, oversized programs,
      front-end rejections and injected faults all map to
      {!Protocol.Error} replies; no input can kill the daemon or the
      connection.  An exception nothing maps (a program whose arrays
      exceed memory, say) becomes an [`Internal] reply that is not
      stored, and the worker keeps running.
    - {e Graceful drain.}  {!stop} (the CLI wires it to SIGINT/SIGTERM
      via {!Neurovec.Supervisor.install_signal_handlers}) refuses new
      requests with [`Shutting_down], lets the workers answer everything
      already admitted, joins them, flushes the store, and returns.

    {b Two-tier cache.}  With a [store_path], replies are recorded in the
    on-disk {!Store} keyed by (program content, pipeline options, kernel,
    model fingerprint).  A restarted daemon answers warm: a store hit
    skips the queue, the forward pass and the compile entirely and
    returns the recorded bytes verbatim — which is why warm answers are
    bit-identical to cold ones by construction.  Replies carry no
    cache-origin markers. *)

type mailbox = {
  mb_lock : Mutex.t;
  mb_cv : Condition.t;
  mutable mb_reply : Protocol.reply option;
}

(* Breaker per client.  [Open_ n]: shed the next [n] requests, then let
   one probe through ([Half_open]). *)
type breaker_state = Closed | Open_ of int | Half_open

(* one client: its breaker, and its unresolved misses, oldest first *)
type client = {
  mutable c_fails : int;
  mutable c_state : breaker_state;
  c_order : waiter Queue.t;
}

(* one admitted miss *)
and waiter = {
  w_client : client;
  w_mb : mailbox;
  mutable w_parked : Protocol.reply option;
      (** measured, waiting for the client's earlier misses *)
}

(* one admitted, unanswered program: every miss for its key waits on it *)
type entry = {
  e_program : Dataset.Program.t;
  e_key : string;  (** content-addressed store key *)
  mutable e_waiters : waiter list;  (** newest first *)
  mutable e_taken : bool;  (** a worker took it off the queue *)
}

type t = {
  agent : Rl.Agent.t;
  model_id : string;
      (** fingerprint of the loaded weights, in store keys and in the
          context-row table's keys (a daemon never changes its weights) *)
  options : Neurovec.Pipeline.options;
  store : Store.t option;
  max_queue : int;
  max_batch : int;
  breaker_threshold : int;  (** consecutive failures to trip; 0 disables *)
  breaker_cooldown : int;  (** requests shed while open before the probe *)
  report_every : float;  (** seconds between self-reports; 0 disables *)
  lock : Mutex.t;  (** guards the fields below, clients and entries *)
  cv : Condition.t;
  queue : entry Queue.t;  (** entries no worker has taken yet *)
  mutable queued : int;  (** requests waiting on [queue]'s entries *)
  unanswered : (string, entry) Hashtbl.t;  (** queued or in flight *)
  clients : (string, client) Hashtbl.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable last_report : float;
}

let model_fingerprint (agent : Rl.Agent.t) : string =
  Digest.to_hex (Digest.string (Marshal.to_string agent []))

let store_key_of ~(model_id : string)
    ~(options : Neurovec.Pipeline.options) (p : Dataset.Program.t) : string =
  Printf.sprintf "%s|%s|%s|model=%s"
    (Neurovec.Frontend.hash_program p)
    (Neurovec.Pipeline.options_key options)
    p.Dataset.Program.p_kernel model_id

(* ------------------------------------------------------------------ *)
(* The answer text                                                      *)
(* ------------------------------------------------------------------ *)

(* The answer to a (program, checkpoint), and what [neurovec predict]
   prints for it: per-loop decisions, the baseline/RL timing line, then
   the rewritten source. *)
let answer_text ~(p : Dataset.Program.t)
    ~(decisions : (int * Minic.Ast.loop_pragma) list)
    ~(base : Neurovec.Pipeline.result) ~(rl : Neurovec.Pipeline.result) :
    string =
  let b = Buffer.create 1024 in
  List.iter
    (fun (ord, pr) ->
      Buffer.add_string b
        (Printf.sprintf "loop %d: VF=%d IF=%d\n" ord
           (Option.value pr.Minic.Ast.vectorize_width ~default:1)
           (Option.value pr.Minic.Ast.interleave_count ~default:1)))
    decisions;
  Buffer.add_string b
    (Printf.sprintf "baseline: %.3e s   RL: %.3e s   speedup %.2fx\n"
       base.Neurovec.Pipeline.exec_seconds rl.Neurovec.Pipeline.exec_seconds
       (base.Neurovec.Pipeline.exec_seconds
       /. rl.Neurovec.Pipeline.exec_seconds));
  Buffer.add_string b "rewritten source:\n";
  Buffer.add_string b
    (Neurovec.Injector.inject_source p.Dataset.Program.p_source ~decisions);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Mailboxes, clients and settling                                      *)
(* ------------------------------------------------------------------ *)

let deliver (mb : mailbox) (reply : Protocol.reply) : unit =
  Mutex.protect mb.mb_lock (fun () ->
      mb.mb_reply <- Some reply;
      Condition.broadcast mb.mb_cv)

let await (mb : mailbox) : Protocol.reply =
  Mutex.protect mb.mb_lock (fun () ->
      while mb.mb_reply = None do
        Condition.wait mb.mb_cv mb.mb_lock
      done;
      Option.get mb.mb_reply)

(* t.lock held *)
let client_of (t : t) (name : string) : client =
  match Hashtbl.find_opt t.clients name with
  | Some c -> c
  | None ->
      let c = { c_fails = 0; c_state = Closed; c_order = Queue.create () } in
      Hashtbl.replace t.clients name c;
      c

(* called with t.lock held, before admission; [true] = shed this request *)
let breaker_sheds (t : t) (name : string) : bool =
  if t.breaker_threshold = 0 then false
  else
    let c = client_of t name in
    match c.c_state with
    | Closed -> false
    | Half_open -> true  (* a probe is already in flight *)
    | Open_ n when n > 0 ->
        c.c_state <- Open_ (n - 1);
        true
    | Open_ _ ->
        (* cooldown spent: this request is the half-open probe *)
        c.c_state <- Half_open;
        false

(* answer one admitted request (t.lock held): the breaker moves before
   the mailbox resolves, so a sequential client's next request already
   sees it *)
let settle (t : t) (c : client) (mb : mailbox) (reply : Protocol.reply) :
    unit =
  let ok = match reply with Protocol.Answer _ -> true | _ -> false in
  if not ok then Counter.incr Neurovec.Stats.serve_failed;
  if t.breaker_threshold > 0 then begin
    if ok then begin
      c.c_fails <- 0;
      c.c_state <- Closed
    end
    else begin
      c.c_fails <- c.c_fails + 1;
      match c.c_state with
      | Half_open ->
          (* the probe failed: straight back to open *)
          c.c_state <- Open_ t.breaker_cooldown
      | Closed when c.c_fails >= t.breaker_threshold ->
          c.c_state <- Open_ t.breaker_cooldown
      | Closed | Open_ _ -> ()
    end
  end;
  deliver mb reply

(* park [reply] for one miss, then settle the client's misses that are
   ready, oldest first (t.lock held) *)
let park (t : t) (w : waiter) (reply : Protocol.reply) : unit =
  w.w_parked <- Some reply;
  let c = w.w_client in
  let rec drain () =
    match Queue.peek_opt c.c_order with
    | Some { w_parked = Some reply; w_mb; _ } ->
        ignore (Queue.pop c.c_order);
        settle t c w_mb reply;
        drain ()
    | Some _ | None -> ()
  in
  drain ()

(* answer every waiter of [e]; [persist] stores the reply first, so a
   request admitted after [e] leaves [unanswered] is a store hit.  A
   second call for the same entry does nothing *)
let resolve (t : t) (e : entry) (reply : Protocol.reply) ~(persist : bool) :
    unit =
  if persist then
    Option.iter
      (fun s -> Store.put s e.e_key (Protocol.encode_reply reply))
      t.store;
  Mutex.protect t.lock (fun () ->
      (match Hashtbl.find_opt t.unanswered e.e_key with
      | Some e' when e' == e -> Hashtbl.remove t.unanswered e.e_key
      | Some _ | None -> ());
      List.iter (fun w -> park t w reply) (List.rev e.e_waiters);
      e.e_waiters <- [])

(* the stored reply for [key], if any; the lookup is not counted.  CRC
   guarded the bytes; decode failure would mean a format skew across
   versions — recompute rather than trust *)
let stored (t : t) (key : string) : Protocol.reply option =
  match Option.bind t.store (fun s -> Store.find s key) with
  | None -> None
  | Some bytes -> (
      match Protocol.decode_reply bytes with
      | reply -> Some reply
      | exception Protocol.Malformed _ -> None)

(* ------------------------------------------------------------------ *)
(* The miss workers                                                     *)
(* ------------------------------------------------------------------ *)

(* every queued entry, up to [max_batch], once there is one; [] once the
   drain has emptied the queue *)
let take (t : t) : entry list =
  Mutex.protect t.lock (fun () ->
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.cv t.lock
      done;
      let rec pop n acc =
        if n = 0 || Queue.is_empty t.queue then List.rev acc
        else begin
          let e = Queue.pop t.queue in
          e.e_taken <- true;
          t.queued <- t.queued - List.length e.e_waiters;
          pop (n - 1) (e :: acc)
        end
      in
      pop t.max_batch [])

(* one entry after phase A or C *)
type staged =
  | Ready of Protocol.reply * bool  (** the reply, and whether to store it *)
  | Encoded of
      Neurovec.Extractor.loop_site list * Embedding.Code2vec.ids array array
      (** loop sites and their encoded contexts, one row per site *)

(* the reply for an exception nothing upstream maps.  It is never
   stored: running out of memory, say, need not be a pure function of
   the key *)
let internal (e : entry) (exn : exn) : Protocol.reply =
  Protocol.Error
    ( `Internal,
      Printf.sprintf "%s: internal error: %s"
        e.e_program.Dataset.Program.p_name (Printexc.to_string exn) )

(* [f ()], or [internal]: one poisoned program must not take its worker,
   or the rest of its take, down with it *)
let guarded (e : entry) (f : unit -> staged) : staged =
  try f () with exn -> Ready (internal e exn, false)

(* phase A: a reply stored while the request sat in the queue (answers
   and typed errors alike are deterministic in the key, so both tiers
   cache both), a front-end rejection, or the sites to predict *)
let stage (t : t) (e : entry) : staged =
  match stored t e.e_key with
  | Some reply -> Ready (reply, false)
  | None -> (
      match Neurovec.Frontend.checked e.e_program with
      | a ->
          let sites = Neurovec.Extractor.extract a.Neurovec.Frontend.a_ast in
          Encoded
            ( sites,
              Array.of_list
                (List.map (Neurovec.Framework.encode_site t.agent) sites) )
      | exception Neurovec.Pipeline.Compile_error msg ->
          Ready (Protocol.Error (`Compile_error, msg), true))

(* phase C: compile-and-measure one miss under full supervision.  Both
   outcomes are pure functions of the key, so both persist: a restarted
   daemon answers known-bad programs warm too, without paying the stall
   deadline or the retry budget again *)
let measure (t : t) (e : entry)
    (decisions : (int * Minic.Ast.loop_pragma) list) : staged =
  let p = e.e_program in
  let reply =
    match
      Neurovec.Supervisor.with_retries (fun ~attempt ->
          let base =
            Neurovec.Pipeline.run_baseline ~options:t.options ~attempt p
          in
          let rl =
            Neurovec.Pipeline.run_with_decisions ~options:t.options ~attempt
              p ~decisions
          in
          answer_text ~p ~decisions ~base ~rl)
    with
    | text -> Protocol.Answer text
    | exception Neurovec.Pipeline.Compile_error msg ->
        Protocol.Error (`Compile_error, msg)
    | exception Neurovec.Supervisor.Hung msg -> Protocol.Error (`Hung, msg)
    | exception Neurovec.Faults.Transient msg ->
        Protocol.Error (`Transient, msg)
    | exception Verify.Tv.Miscompile msg -> Protocol.Error (`Miscompiled, msg)
    | exception Verify.Tv.Over_budget msg ->
        (* the refusal depends only on the declared sizes *)
        Protocol.Error
          (`Internal, "translation validation refused: " ^ msg)
    | exception Neurovec.Faults.Fuel_exhausted msg ->
        Protocol.Error (`Internal, msg)
    | exception Ir_interp.Trap msg -> Protocol.Error (`Internal, msg)
  in
  Ready (reply, true)

(* phases A–D for one take, settling each entry as soon as its reply is
   known *)
let process (t : t) (entries : entry list) : unit =
  let settle_or_keep e = function
    | Ready (reply, persist) ->
        resolve t e reply ~persist;
        None
    | Encoded (sites, ids) -> Some (e, sites, ids)
  in
  let misses =
    List.filter_map
      (fun e -> settle_or_keep e (guarded e (fun () -> stage t e)))
      entries
  in
  if misses <> [] then begin
    let n = List.length misses in
    Counter.incr Neurovec.Stats.serve_batches;
    Counter.add Neurovec.Stats.serve_batched n;
    Counter.max_to Neurovec.Stats.serve_batch_max n;
    let acts =
      Rl.Agent.predict_batch ~model:t.model_id t.agent
        (Array.concat (List.map (fun (_, _, ids) -> ids) misses))
    in
    ignore
      (List.fold_left
         (fun base (e, sites, ids) ->
           let decisions =
             List.mapi
               (fun i (site : Neurovec.Extractor.loop_site) ->
                 let act = acts.(base + i) in
                 ( site.Neurovec.Extractor.ordinal,
                   Neurovec.Injector.pragma_of
                     ~vf:(Rl.Spaces.vf_of act)
                     ~if_:(Rl.Spaces.if_of act) ))
               sites
           in
           ignore
             (settle_or_keep e (guarded e (fun () -> measure t e decisions)));
           base + Array.length ids)
         0 misses)
  end

(* the workers report after each take and a session thread after each
   stored reply, so hit-only traffic still reports; the clock moves under
   [t.lock] *)
let maybe_report (t : t) : unit =
  if t.report_every > 0.0 then begin
    let due =
      Mutex.protect t.lock (fun () ->
          let now = Unix.gettimeofday () in
          if now -. t.last_report >= t.report_every then begin
            t.last_report <- now;
            true
          end
          else false)
    in
    if due then begin
      let open Neurovec.Stats in
      let n = Counter.get in
      Printf.eprintf
        "neurovec serve: %d accepted / %d shed / %d failed / %d retried; %d \
         batches (max %d); store %d hits / %d misses / %d CRC rejects\n%!"
        (n serve_accepted) (n serve_shed) (n serve_failed)
        (n transient_retries) (n serve_batches) (n serve_batch_max)
        (n store_hits) (n store_misses) (n store_crc_rejects)
    end
  end

(* one worker's life: take, process, repeat until the drain is done.  An
   exception outside the per-entry guards (phase B, say) answers what is
   left of its take as [`Internal] *)
let rec work (t : t) : unit =
  match take t with
  | [] -> ()
  | entries ->
      (try process t entries
       with exn ->
         List.iter
           (fun e -> resolve t e (internal e exn) ~persist:false)
           entries);
      maybe_report t;
      work t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

(** Spawn the [Parpool.jobs ()] miss workers if none are running and the
    daemon is not draining (no-op otherwise). *)
let start (t : t) : unit =
  Mutex.protect t.lock (fun () ->
      if List.is_empty t.workers && not t.stopping then
        t.workers <-
          List.init (Neurovec.Parpool.jobs ()) (fun _ ->
              Neurovec.Parpool.spawn_worker (fun () -> work t)))

(** Create a daemon around a loaded agent.  [store_path] enables the
    on-disk tier (recovering whatever a previous process left);
    [autostart:false] leaves the workers unspawned so tests can fill the
    queue first ({!start} spawns them). *)
let create ?(options = Neurovec.Pipeline.default_options) ?store_path
    ?(max_queue = 128) ?(max_batch = 32) ?(breaker_threshold = 5)
    ?(breaker_cooldown = 8) ?(report_every = 0.0) ?(autostart = true)
    (agent : Rl.Agent.t) : t =
  let t =
    {
      agent;
      model_id = model_fingerprint agent;
      options;
      store = Option.map Store.open_store store_path;
      max_queue = max 1 max_queue;
      max_batch = max 1 max_batch;
      breaker_threshold = max 0 breaker_threshold;
      breaker_cooldown = max 1 breaker_cooldown;
      report_every = max 0.0 report_every;
      lock = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      queued = 0;
      unanswered = Hashtbl.create 64;
      clients = Hashtbl.create 16;
      stopping = false;
      workers = [];
      last_report = Unix.gettimeofday ();
    }
  in
  (match t.store with
  | Some s ->
      let ok, rejected, torn = Store.recovery s in
      if rejected > 0 || torn then
        Printf.eprintf
          "neurovec serve: store recovery: %d entries intact, %d \
           CRC-rejected%s (damaged log quarantined)\n%!"
          ok rejected
          (if torn then ", torn tail dropped" else "")
  | None -> ());
  if autostart then start t;
  t

(** Graceful drain: refuse new requests, answer everything admitted, join
    the workers, flush and close the store.  Every accepted request
    receives its reply before [stop] returns.  Idempotent. *)
let stop (t : t) : unit =
  let workers =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cv;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  (match workers with
  | [] ->
      (* never started ([autostart:false]): drain whatever is queued
         inline — accepted requests get real replies even here *)
      work t
  | ws -> List.iter Domain.join ws);
  Option.iter
    (fun s ->
      Store.flush s;
      Store.close s)
    t.store

(* ------------------------------------------------------------------ *)
(* Submission                                                           *)
(* ------------------------------------------------------------------ *)

(* admit a miss (t.lock held): join the unanswered entry for its key, or
   queue a new one and wake a worker *)
let admit (t : t) (c : client) (program : Dataset.Program.t) (key : string)
    (mb : mailbox) : unit =
  let w = { w_client = c; w_mb = mb; w_parked = None } in
  Queue.push w c.c_order;
  match Hashtbl.find_opt t.unanswered key with
  | Some e ->
      e.e_waiters <- w :: e.e_waiters;
      if not e.e_taken then t.queued <- t.queued + 1
  | None ->
      let e =
        { e_program = program; e_key = key; e_waiters = [ w ];
          e_taken = false }
      in
      Hashtbl.replace t.unanswered key e;
      Queue.push e t.queue;
      t.queued <- t.queued + 1;
      Condition.signal t.cv

(** Admit one vectorize request without waiting; the reply lands in the
    returned mailbox.  A stored reply resolves it at once, after the drain
    and breaker checks, whatever the queue holds; only a miss waits for a
    worker, and a miss for a program already admitted and unanswered
    joins that request instead of queueing again.  Shedding paths (drain,
    open breaker, full queue) resolve the mailbox immediately.  Each
    admitted request counts one store lookup. *)
let submit (t : t) ~(client : string) ~(name : string) ~(kernel : string)
    ~(source : string) : mailbox =
  let mb =
    { mb_lock = Mutex.create (); mb_cv = Condition.create ();
      mb_reply = None }
  in
  let program = Dataset.Program.make ~kernel ~family:"serve" name source in
  let key = store_key_of ~model_id:t.model_id ~options:t.options program in
  let draining = (`Shutting_down, "daemon is draining") in
  let half_open () =
    match Hashtbl.find_opt t.clients client with
    | Some ({ c_state = Half_open; _ } as c) -> Some c
    | _ -> None
  in
  (* [probe]: this request is the client's half-open probe *)
  let refused, probe =
    Mutex.protect t.lock (fun () ->
        if t.stopping then (Some draining, false)
        else if breaker_sheds t client then
          ( Some
              ( `Breaker_open,
                Printf.sprintf
                  "circuit breaker open for client %s (consecutive failures)"
                  client ),
            false )
        else (None, half_open () <> None))
  in
  let verdict =
    match refused with
    | Some why -> `Shed why
    | None -> (
        match stored t key with
        | Some reply -> `Hit reply
        | None ->
            Mutex.protect t.lock (fun () ->
                let shed why =
                  (* a shed probe folds no outcome: hand the probe to the
                     client's next request, or the breaker stays
                     half-open and sheds that client for good *)
                  (if probe then
                     match half_open () with
                     | Some c -> c.c_state <- Open_ 0
                     | None -> ());
                  `Shed why
                in
                (* the drain may have begun since the first check; a
                   request admitted now would never be answered *)
                if t.stopping then shed draining
                else if t.queued >= t.max_queue then
                  shed
                    ( `Overloaded,
                      Printf.sprintf "queue full (%d requests)" t.max_queue
                    )
                else begin
                  admit t (client_of t client) program key mb;
                  `Queued
                end))
  in
  (match verdict with
  | `Hit reply ->
      Counter.incr Neurovec.Stats.serve_accepted;
      Counter.incr Neurovec.Stats.store_hits;
      Mutex.protect t.lock (fun () -> settle t (client_of t client) mb reply);
      maybe_report t
  | `Queued ->
      Counter.incr Neurovec.Stats.serve_accepted;
      if t.store <> None then Counter.incr Neurovec.Stats.store_misses
  | `Shed (kind, msg) ->
      Counter.incr Neurovec.Stats.serve_shed;
      deliver mb (Protocol.Error (kind, msg)));
  mb

(** Submit and wait: the in-process client the connection handlers, the
    tests and the bench all share. *)
let call (t : t) ~(client : string) ~(name : string) ~(kernel : string)
    ~(source : string) : Protocol.reply =
  await (submit t ~client ~name ~kernel ~source)

(** Answer one decoded request (the transport-independent dispatcher). *)
let answer (t : t) (req : Protocol.request) : Protocol.reply =
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Stats_req -> Protocol.Stats_reply (Neurovec.Stats.report ())
  | Protocol.Vectorize { v_client; v_name; v_kernel; v_source } ->
      call t ~client:v_client ~name:v_name ~kernel:v_kernel ~source:v_source

(* ------------------------------------------------------------------ *)
(* Transports                                                           *)
(* ------------------------------------------------------------------ *)

(* one channel-pair session: read frames, answer, until EOF or drain.
   Never raises on peer input. *)
let session (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let write reply =
    try Protocol.write_frame oc (Protocol.encode_reply reply)
    with Sys_error _ -> ()  (* peer went away; nothing to tell it *)
  in
  let rec loop () =
    if Neurovec.Supervisor.shutdown_requested () then ()
    else
      match Protocol.read_frame ic with
      | Protocol.Eof -> ()
      | Protocol.Too_big n ->
          Counter.incr Neurovec.Stats.serve_shed;
          write
            (Protocol.Error
               ( `Too_big,
                 Printf.sprintf "frame of %d bytes exceeds the %d limit" n
                   Protocol.max_frame ));
          loop ()
      | Protocol.Frame payload ->
          (match Protocol.decode_request payload with
          | req -> write (answer t req)
          | exception Protocol.Malformed msg ->
              Counter.incr Neurovec.Stats.serve_failed;
              write (Protocol.Error (`Malformed, msg)));
          loop ()
  in
  loop ()

(** Serve a single client over stdin/stdout (the [--stdio] transport):
    frames in, frames out, until EOF or a shutdown signal; then drain. *)
let run_stdio (t : t) : unit =
  session t stdin stdout;
  stop t

(** Serve over a Unix-domain socket at [path] until a shutdown signal:
    each accepted connection gets a handler thread; on shutdown the
    listener closes, blocked reads are unblocked, in-flight requests
    finish, and the queue drains before returning. *)
let run_socket (t : t) ~(path : string) : unit =
  (try Sys.remove path with Sys_error _ -> ());
  Fsio.mkdir_p (Filename.dirname path);
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let conns_lock = Mutex.create () in
  let conns : (int, Unix.file_descr * Thread.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let next_conn = ref 0 in
  let handler id fd () =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try session t ic oc with _ -> ());
    (try flush oc with Sys_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.protect conns_lock (fun () -> Hashtbl.remove conns id)
  in
  let rec accept_loop () =
    if Neurovec.Supervisor.shutdown_requested () then ()
    else begin
      (* the shutdown signal lands mid-select as EINTR: loop around and
         let the flag decide *)
      (match Unix.select [ sock ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [ _ ], _, _ -> (
          match Unix.accept sock with
          | fd, _ ->
              let id = !next_conn in
              incr next_conn;
              let th = Thread.create (handler id fd) () in
              Mutex.protect conns_lock (fun () ->
                  Hashtbl.replace conns id (fd, th))
          | exception Unix.Unix_error _ -> ())
      | _ -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  (* unblock handlers parked in read_frame; they finish their in-flight
     request (the write side stays open) and exit *)
  let live =
    Mutex.protect conns_lock (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) conns [])
  in
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    live;
  List.iter (fun (_, th) -> Thread.join th) live;
  stop t
