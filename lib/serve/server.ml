(** The [neurovec serve] daemon: a long-lived vectorization service.

    One process loads a trained checkpoint once and answers "vectorize
    this program" requests for as long as it lives.  A request whose reply
    the store already holds is answered at admission; only misses reach
    the single {e batcher} thread behind a bounded queue:

    {v
    clients --> submit --+-- store hit: answered in submit
                         |
                         '-- miss --> [bounded queue] --> batcher
                                     |  A. store re-probe + front end
                                     |  B. one predict_batch over
                                     |     every site of the batch
                                     |  C. compile/measure fan-out
                                     |     across Parpool, each
                                     |     request supervised
                                     '- D. replies + store puts,
                                           in queue order
    v}

    Concurrent misses that arrive within one batch window share a single
    {!Rl.Agent.predict_batch} forward pass (phase B) and fan their
    compile-and-measure work across the {!Neurovec.Parpool} domains
    (phase C) — the daemon's throughput scales with [--jobs] while every
    answer stays bit-identical to the serial [neurovec predict] CLI.

    {b Robustness layers}, outermost first:

    - {e Load shedding.}  The queue is bounded; a full queue answers a
      miss [`Overloaded] immediately — an explicit, structured reply,
      never a silent drop ({!Neurovec.Stats.serve_shed} counts
      them).  A stored reply is still answered: shedding protects
      compute, and a hit uses none.
    - {e Circuit breaker}, per client: after [breaker_threshold]
      consecutive failures the client's breaker opens and its next
      [breaker_cooldown] requests are shed with [`Breaker_open]; the
      request after that is a half-open probe — success closes the
      breaker, failure re-opens it, and a probe shed by the queue bound
      or the drain passes the probe to the client's next request.  One
      pathological client cannot keep the pool busy failing.  Counts,
      not clocks, so the behaviour is deterministic under test.
    - {e Supervision}, per request: phase C runs under
      {!Neurovec.Supervisor.supervised} (deadline watchdog; a stalled
      evaluation dies as [`Hung]) and {!Neurovec.Supervisor.with_retries}
      (deterministic retry of transient faults, [`Transient] once the
      budget is exhausted).
    - {e Typed failure replies.}  Malformed frames, oversized programs,
      front-end rejections and injected faults all map to
      {!Protocol.Error} replies; no input can kill the daemon or the
      connection.
    - {e Graceful drain.}  {!stop} (the CLI wires it to SIGINT/SIGTERM
      via {!Neurovec.Supervisor.install_signal_handlers}) refuses new
      requests with [`Shutting_down], lets the batcher finish everything
      already queued, flushes the store, and returns — every accepted
      request gets its reply.

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

type pending = {
  p_client : string;
  p_program : Dataset.Program.t;
  p_key : string;  (** content-addressed store key *)
  p_mb : mailbox;
}

(* Breaker per client.  [Open_ n]: shed the next [n] requests, then let
   one probe through ([Half_open]). *)
type breaker_state = Closed | Open_ of int | Half_open

type breaker = { mutable b_fails : int; mutable b_state : breaker_state }

type t = {
  agent : Rl.Agent.t;
  model_id : string;  (** fingerprint of the loaded weights, in store keys *)
  options : Neurovec.Pipeline.options;
  store : Store.t option;
  max_queue : int;
  max_batch : int;
  batch_window : float;
  breaker_threshold : int;  (** consecutive failures to trip; 0 disables *)
  breaker_cooldown : int;  (** requests shed while open before the probe *)
  report_every : float;  (** seconds between self-reports; 0 disables *)
  lock : Mutex.t;
  cv : Condition.t;
  queue : pending Queue.t;
  breakers : (string, breaker) Hashtbl.t;
  mutable stopping : bool;
  mutable batcher : Thread.t option;
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

(* Byte-for-byte the output of the [neurovec predict] CLI for the same
   (program, checkpoint): per-loop decisions, the baseline/RL timing
   line, then the rewritten source.  The CI gate diffs the two, so any
   format change here must change the CLI too. *)
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
    (Neurovec.Injector.inject_source ~clear_others:true
       p.Dataset.Program.p_source ~decisions);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Mailboxes and breakers                                               *)
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

let breaker_of (t : t) (client : string) : breaker =
  match Hashtbl.find_opt t.breakers client with
  | Some b -> b
  | None ->
      let b = { b_fails = 0; b_state = Closed } in
      Hashtbl.replace t.breakers client b;
      b

(* called with t.lock held, before admission; [true] = shed this request *)
let breaker_sheds (t : t) (client : string) : bool =
  if t.breaker_threshold = 0 then false
  else
    let b = breaker_of t client in
    match b.b_state with
    | Closed -> false
    | Half_open -> true  (* a probe is already in flight *)
    | Open_ n when n > 0 ->
        b.b_state <- Open_ (n - 1);
        true
    | Open_ _ ->
        (* cooldown spent: this request is the half-open probe *)
        b.b_state <- Half_open;
        false

(* fold one reply's outcome into the client's breaker: at admission for a
   stored reply, else in phase D, serial in the batcher *)
let breaker_outcome (t : t) (client : string) ~(ok : bool) : unit =
  if t.breaker_threshold > 0 then
    Mutex.protect t.lock (fun () ->
        let b = breaker_of t client in
        if ok then begin
          b.b_fails <- 0;
          b.b_state <- Closed
        end
        else begin
          b.b_fails <- b.b_fails + 1;
          match b.b_state with
          | Half_open ->
              (* the probe failed: straight back to open *)
              b.b_state <- Open_ t.breaker_cooldown
          | Closed when b.b_fails >= t.breaker_threshold ->
              b.b_state <- Open_ t.breaker_cooldown
          | Closed | Open_ _ -> ()
        end)

(* answer one admitted request: the breaker moves before the mailbox
   resolves, so a sequential client's next request already sees it *)
let settle (t : t) (p : pending) (reply : Protocol.reply) : unit =
  let ok = match reply with Protocol.Answer _ -> true | _ -> false in
  if not ok then Counter.incr Neurovec.Stats.serve_failed;
  breaker_outcome t p.p_client ~ok;
  deliver p.p_mb reply

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
(* The batcher                                                          *)
(* ------------------------------------------------------------------ *)

let take_batch (t : t) : pending list option =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.cv t.lock
  done;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.lock;
    None  (* stopping, and fully drained *)
  end
  else begin
    Mutex.unlock t.lock;
    (* let concurrent submitters land in the same forward pass *)
    if t.batch_window > 0.0 then Thread.delay t.batch_window;
    Mutex.lock t.lock;
    let out = ref [] and n = ref 0 in
    while (not (Queue.is_empty t.queue)) && !n < t.max_batch do
      out := Queue.pop t.queue :: !out;
      incr n
    done;
    Mutex.unlock t.lock;
    Some (List.rev !out)
  end

(* one request's phase-A result *)
type staged =
  | Hit of Protocol.reply
      (** stored while the request sat in the queue; answers and typed
          errors alike are deterministic in the key, so both tiers cache
          both *)
  | Miss of
      Neurovec.Extractor.loop_site list * Embedding.Code2vec.ids array array
      (** loop sites and their encoded contexts, one row per site *)
  | Front_error of Protocol.error_kind * string

(* compile-and-measure one request under full supervision; pure except for
   Stats, so it can run on any pool domain *)
let measure_one (t : t) (p : pending)
    (decisions : (int * Minic.Ast.loop_pragma) list) :
    (string, Protocol.error_kind * string) result =
  let name = p.p_program.Dataset.Program.p_name in
  match
    Neurovec.Supervisor.supervised ~name (fun () ->
        Neurovec.Supervisor.with_retries (fun ~attempt ->
            let base =
              Neurovec.Pipeline.run_baseline ~options:t.options ~attempt
                p.p_program
            in
            let rl =
              Neurovec.Pipeline.run_with_decisions ~options:t.options
                ~attempt p.p_program ~decisions
            in
            answer_text ~p:p.p_program ~decisions ~base ~rl))
  with
  | text -> Ok text
  | exception Neurovec.Pipeline.Compile_error msg ->
      Error (`Compile_error, msg)
  | exception Neurovec.Supervisor.Hung msg -> Error (`Hung, msg)
  | exception Neurovec.Faults.Transient msg -> Error (`Transient, msg)
  | exception Verify.Tv.Miscompile msg -> Error (`Miscompiled, msg)
  | exception Neurovec.Faults.Fuel_exhausted msg -> Error (`Internal, msg)
  | exception Ir_interp.Trap msg -> Error (`Internal, msg)

let process_batch (t : t) (batch : pending list) : unit =
  (* ---- A: store re-probe + front end, serial (fast, cache-bound); the
     program may have been answered for an earlier batch while this
     request sat in the queue ---- *)
  let staged =
    List.map
      (fun p ->
        match stored t p.p_key with
        | Some reply -> (p, Hit reply)
        | None -> (
            match Neurovec.Frontend.checked p.p_program with
            | a ->
                let sites =
                  Neurovec.Extractor.extract a.Neurovec.Frontend.a_ast
                in
                let ids =
                  Array.of_list
                    (List.map
                       (Neurovec.Framework.encode_site t.agent)
                       sites)
                in
                (p, Miss (sites, ids))
            | exception Neurovec.Pipeline.Compile_error msg ->
                (p, Front_error (`Compile_error, msg))))
      batch
  in
  (* ---- B: one forward pass over every site of every miss ---- *)
  let misses =
    List.filter_map
      (function p, Miss (sites, ids) -> Some (p, sites, ids) | _ -> None)
      staged
  in
  let decisions_of =
    if misses = [] then fun _ -> []
    else begin
      let n = List.length misses in
      Counter.incr Neurovec.Stats.serve_batches;
      Counter.add Neurovec.Stats.serve_batched n;
      Counter.max_to Neurovec.Stats.serve_batch_max n;
      let all_ids =
        Array.concat (List.map (fun (_, _, ids) -> ids) misses)
      in
      let jobs = Neurovec.Parpool.jobs () in
      let acts =
        if jobs > 1 then
          Rl.Agent.predict_batch ~jobs
            ~map:(fun f xs -> Neurovec.Parpool.map f xs)
            t.agent all_ids
        else Rl.Agent.predict_batch t.agent all_ids
      in
      (* slice the flat action array back per request *)
      let offsets = Hashtbl.create 16 in
      let off = ref 0 in
      List.iter
        (fun (p, _, ids) ->
          Hashtbl.replace offsets p.p_key !off;
          off := !off + Array.length ids)
        misses;
      fun (p, sites, _) ->
        let base = Hashtbl.find offsets p.p_key in
        List.mapi
          (fun i (site : Neurovec.Extractor.loop_site) ->
            let act = acts.(base + i) in
            ( site.Neurovec.Extractor.ordinal,
              Neurovec.Injector.pragma_of
                ~vf:(Rl.Spaces.vf_of act)
                ~if_:(Rl.Spaces.if_of act) ))
          sites
    end
  in
  (* ---- C: compile/measure fan-out across the pool ---- *)
  let measured =
    Neurovec.Parpool.map
      (fun (p, sites, ids) -> measure_one t p (decisions_of (p, sites, ids)))
      (Array.of_list misses)
  in
  let results = Hashtbl.create 16 in
  List.iteri
    (fun i (p, _, _) -> Hashtbl.replace results p.p_key measured.(i))
    misses;
  (* ---- D: replies, store puts and breaker updates, in queue order ---- *)
  let fresh (p : pending) (reply : Protocol.reply) : unit =
    (* both outcomes are pure functions of the key, so both persist: a
       restarted daemon answers known-bad programs warm too, without
       paying the stall deadline or the retry budget again *)
    Option.iter
      (fun s -> Store.put s p.p_key (Protocol.encode_reply reply))
      t.store;
    settle t p reply
  in
  List.iter
    (fun (p, st) ->
      match st with
      | Hit reply -> settle t p reply
      | Front_error (kind, msg) -> fresh p (Protocol.Error (kind, msg))
      | Miss _ -> (
          match Hashtbl.find results p.p_key with
          | Ok text -> fresh p (Protocol.Answer text)
          | Error (kind, msg) -> fresh p (Protocol.Error (kind, msg))))
    staged

(* the batcher reports after each batch and a session thread after each
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

let batcher_loop (t : t) : unit =
  let rec loop () =
    match take_batch t with
    | None -> ()
    | Some batch ->
        process_batch t batch;
        maybe_report t;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

(** Create a daemon around a loaded agent.  [store_path] enables the
    on-disk tier (recovering whatever a previous process left);
    [autostart:false] leaves the batcher unstarted so tests can fill the
    queue first ({!start} launches it). *)
let create ?(options = Neurovec.Pipeline.default_options) ?store_path
    ?(max_queue = 128) ?(max_batch = 32) ?(batch_window = 0.002)
    ?(breaker_threshold = 5) ?(breaker_cooldown = 8) ?(report_every = 0.0)
    ?(autostart = true) (agent : Rl.Agent.t) : t =
  let t =
    {
      agent;
      model_id = model_fingerprint agent;
      options;
      store = Option.map Store.open_store store_path;
      max_queue = max 1 max_queue;
      max_batch = max 1 max_batch;
      batch_window = max 0.0 batch_window;
      breaker_threshold = max 0 breaker_threshold;
      breaker_cooldown = max 1 breaker_cooldown;
      report_every = max 0.0 report_every;
      lock = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      breakers = Hashtbl.create 16;
      stopping = false;
      batcher = None;
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
  if autostart then t.batcher <- Some (Thread.create batcher_loop t);
  t

(** Launch the batcher if it is not running (no-op otherwise). *)
let start (t : t) : unit =
  Mutex.protect t.lock (fun () ->
      if t.batcher = None && not t.stopping then
        t.batcher <- Some (Thread.create batcher_loop t))

(** Graceful drain: refuse new requests, finish everything queued, flush
    and close the store.  Every accepted request receives its reply
    before [stop] returns.  Idempotent. *)
let stop (t : t) : unit =
  let th =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cv;
        let th = t.batcher in
        t.batcher <- None;
        th)
  in
  (match th with
  | Some th -> Thread.join th
  | None ->
      (* never started ([autostart:false]): drain whatever is queued
         inline — accepted requests get real replies even here *)
      batcher_loop t);
  Option.iter
    (fun s ->
      Store.flush s;
      Store.close s)
    t.store

(* ------------------------------------------------------------------ *)
(* Submission                                                           *)
(* ------------------------------------------------------------------ *)

(** Admit one vectorize request without waiting; the reply lands in the
    returned mailbox.  A stored reply resolves it at once, after the drain
    and breaker checks, whatever the queue holds; only a miss is queued
    for the batcher.  Shedding paths (drain, open breaker, full queue)
    resolve the mailbox immediately.  Each admitted request counts one
    store lookup. *)
let submit (t : t) ~(client : string) ~(name : string) ~(kernel : string)
    ~(source : string) : mailbox =
  let mb =
    { mb_lock = Mutex.create (); mb_cv = Condition.create ();
      mb_reply = None }
  in
  let program = Dataset.Program.make ~kernel ~family:"serve" name source in
  let p =
    { p_client = client; p_program = program;
      p_key = store_key_of ~model_id:t.model_id ~options:t.options program;
      p_mb = mb }
  in
  let draining = (`Shutting_down, "daemon is draining") in
  let half_open () =
    match Hashtbl.find_opt t.breakers client with
    | Some ({ b_state = Half_open; _ } as b) -> Some b
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
        match stored t p.p_key with
        | Some reply -> `Hit reply
        | None ->
            Mutex.protect t.lock (fun () ->
                let shed why =
                  (* a shed probe folds no outcome: hand the probe to the
                     client's next request, or the breaker stays
                     half-open and sheds that client for good *)
                  (if probe then
                     match half_open () with
                     | Some b -> b.b_state <- Open_ 0
                     | None -> ());
                  `Shed why
                in
                (* the drain may have begun since the first check; a
                   request queued now would never be answered *)
                if t.stopping then shed draining
                else if Queue.length t.queue >= t.max_queue then
                  shed
                    ( `Overloaded,
                      Printf.sprintf "queue full (%d requests)" t.max_queue
                    )
                else begin
                  Queue.push p t.queue;
                  Condition.signal t.cv;
                  `Queued
                end))
  in
  (match verdict with
  | `Hit reply ->
      Counter.incr Neurovec.Stats.serve_accepted;
      Counter.incr Neurovec.Stats.store_hits;
      settle t p reply;
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
  Neurovec.Supervisor.mkdir_p (Filename.dirname path);
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
