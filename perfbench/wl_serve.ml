(** [serve]: a closed loop of [jobs] client connections against a
    [neurovec serve --socket --store --verify] daemon.  Each client is a
    waiting caller, such as a build invoking the daemon: it sends its next
    request only when the previous reply arrived.  The daemon serves a
    checkpoint of a fixed-seed agent, starts with an empty store, and runs
    with no injected faults (a stall fault would pin p99 to the watchdog
    deadline).

    Traffic is seeded: a request names a new Loopgen program with
    probability [new_share], else it repeats an earlier request picked
    uniformly, so popular programs get more popular (skewed reuse).
    Misses take the [run_ast] path with two translation-validation
    verdicts; hits take store + protocol + the batch window.  One unit of
    work is one request; latency is client-observed. *)

open Report

let new_share = 0.2

let agent_seed = 9

let verified = { Neurovec.Pipeline.default_options with verify = true }

(* the stream new programs are drawn from.  Fixed, so every seed meets the
   same programs in the same order and only the traffic (which request
   repeats which) varies: p99 lives in the few programs whose verdicts
   cost 100 ms or more, and their number in a seeded draw moves p99 by
   +-25% between seeds *)
let corpus_seed = 13

(* distinct programs in first-use order, and the request sequence as
   indices into them; Loopgen programs that need bindings are skipped,
   since the wire protocol carries none *)
let traffic (c : config) : Dataset.Program.t array * int array =
  let n = if c.smoke then 40 else int_of_float (1000.0 *. c.seconds) in
  let mix = Nn.Rng.create c.seed in
  let gen = Nn.Rng.create corpus_seed in
  let progs = ref [] and count = ref 0 in
  let rec fresh () =
    let p = Dataset.Loopgen.generate_one gen !count in
    if p.Dataset.Program.p_bindings <> [] then fresh ()
    else begin
      progs := p :: !progs;
      incr count;
      !count - 1
    end
  in
  let seq = Array.make n 0 in
  for i = 0 to n - 1 do
    seq.(i) <-
      (if i = 0 || Nn.Rng.float mix < new_share then fresh ()
       else seq.(Nn.Rng.int mix i))
  done;
  (Array.of_list (List.rev !progs), seq)

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

(* the live daemon, killed at exit whatever path the run takes *)
let daemon : int option ref = ref None

let stop_daemon ?(signal = Sys.sigterm) () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid signal with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      daemon := None)
    !daemon

let () = at_exit (fun () -> stop_daemon ~signal:Sys.sigkill ())

let spawn (c : config) ~(ckpt : string) : unit =
  List.iter
    (fun f -> try Sys.remove (path c f) with Sys_error _ -> ())
    [ "serve.sock"; "serve.store" ];
  let log =
    Unix.openfile (path c "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* --deadline and --max-retries restate their defaults: left unset, the
     daemon reads them from lazy values that its pool domains can force at
     the same moment, and the loser's [Lazy.Undefined] kills the batcher *)
  let pid =
    Unix.create_process c.cli
      [| c.cli; "serve"; "--model"; ckpt; "--socket"; path c "serve.sock";
         "--store"; path c "serve.store"; "--verify"; "--jobs";
         string_of_int c.jobs; "--deadline"; "2"; "--max-retries"; "3" |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  daemon := Some pid

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect (c : config) : conn =
  let deadline = now () +. 60.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX (path c "serve.sock")) with
    | () ->
        (* a daemon that stops answering fails the run instead of hanging it *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match !daemon with
        | Some pid when fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 ->
            daemon := None;
            failwith "the daemon exited during start-up (see daemon.log)"
        | _ -> ());
        if now () > deadline then failwith "the daemon did not come up";
        Thread.delay 0.002;
        go ()
  in
  go ()

let close (k : conn) = try Unix.close k.fd with Unix.Unix_error _ -> ()

let call (k : conn) (r : Serve.Protocol.request) : string =
  Serve.Protocol.write_frame k.oc (Serve.Protocol.encode_request r);
  match Serve.Protocol.read_frame k.ic with
  | Serve.Protocol.Frame payload -> payload
  | Serve.Protocol.Eof | Serve.Protocol.Too_big _ ->
      failwith "the daemon closed the connection"

(* spawn, connect, first Pong: the set-up a caller waits for *)
let start (c : config) ~ckpt : float =
  let t0 = now () in
  spawn c ~ckpt;
  let k = connect c in
  let pong = call k Serve.Protocol.Ping in
  let dt = now () -. t0 in
  close k;
  if Serve.Protocol.decode_reply pong <> Serve.Protocol.Pong then
    failwith "the daemon did not answer Ping with Pong";
  dt

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)
(* ------------------------------------------------------------------ *)

type sample = { idx : int; t_sent : float; t_done : float; reply : string }

let request (p : Dataset.Program.t) ~client : Serve.Protocol.request =
  Serve.Protocol.Vectorize
    { v_client = client; v_name = p.Dataset.Program.p_name;
      v_kernel = p.Dataset.Program.p_kernel; v_source = p.Dataset.Program.p_source }

let load (c : config) (progs : Dataset.Program.t array) (seq : int array) :
    sample array * float * int =
  let next = Atomic.make 0 and broken = Atomic.make 0 in
  let t0 = now () in
  let deadline = t0 +. c.seconds in
  let out = Array.make c.jobs [] in
  let client k () =
    let conn = connect c in
    let client = Printf.sprintf "client-%d" k in
    let rec loop acc =
      if now () >= deadline && not c.smoke then acc
      else
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length seq then acc
        else begin
          let t_sent = now () in
          match call conn (request progs.(seq.(i)) ~client) with
          | reply -> loop ({ idx = i; t_sent; t_done = now (); reply } :: acc)
          | exception (Failure _ | Sys_error _ | Unix.Unix_error _) ->
              Atomic.incr broken;
              acc
        end
    in
    out.(k) <- loop [];
    close conn
  in
  List.iter Thread.join (List.init c.jobs (fun k -> Thread.create (client k) ()));
  let wall = now () -. t0 in
  let all = Array.of_list (List.concat (Array.to_list out)) in
  Array.sort (fun a b -> compare a.idx b.idx) all;
  (all, wall, Atomic.get broken)

(* ------------------------------------------------------------------ *)
(* The reference answer                                                 *)
(* ------------------------------------------------------------------ *)

let error_reply (e : exn) : Serve.Protocol.reply =
  let err k m = Serve.Protocol.Error (k, m) in
  match e with
  | Neurovec.Pipeline.Compile_error m -> err `Compile_error m
  | Neurovec.Supervisor.Hung m -> err `Hung m
  | Neurovec.Faults.Transient m -> err `Transient m
  | Verify.Tv.Miscompile m -> err `Miscompiled m
  | Neurovec.Faults.Fuel_exhausted m | Ir_interp.Trap m -> err `Internal m
  | e -> raise e

(* the serial [neurovec predict] answer with verification on: what every
   reply for [p] must be, byte for byte *)
let expected (agent : Rl.Agent.t) (p : Dataset.Program.t) : string =
  Serve.Protocol.encode_reply
    (try
       let decisions = Neurovec.Framework.predict_decisions agent p in
       let base = Neurovec.Pipeline.run_baseline ~options:verified p in
       let rl = Neurovec.Pipeline.run_with_decisions ~options:verified p ~decisions in
       Serve.Protocol.Answer (Serve.Server.answer_text ~p ~decisions ~base ~rl)
     with e -> error_reply e)

(* the same answer, decomposed into spans: front end, inference, the
   pipeline with verification off, the two verdicts, then the reply's
   trip through the store and the protocol *)
let traced_expected (agent : Rl.Agent.t) (store : Serve.Store.t) ~model_id
    ~(hit_costs : (float * float) list ref) ~lock (p : Dataset.Program.t) : string =
  let off = Neurovec.Pipeline.default_options in
  let reply =
    try
      let a = Trace.span ~phases:true "frontend" (fun () -> Neurovec.Frontend.checked p) in
      let decisions =
        Trace.span "infer" (fun () ->
            let sites = Neurovec.Extractor.extract a.Neurovec.Frontend.a_ast in
            let acts =
              Rl.Agent.predict_batch agent
                (Array.of_list (List.map (Neurovec.Framework.encode_site agent) sites))
            in
            List.mapi
              (fun i (site : Neurovec.Extractor.loop_site) ->
                ( site.Neurovec.Extractor.ordinal,
                  Neurovec.Injector.pragma_of ~vf:(Rl.Spaces.vf_of acts.(i))
                    ~if_:(Rl.Spaces.if_of acts.(i)) ))
              sites)
      in
      let base, rl =
        Trace.span ~phases:true "pipeline" (fun () ->
            ( Neurovec.Pipeline.run_baseline ~options:off p,
              Neurovec.Pipeline.run_with_decisions ~options:off p ~decisions ))
      in
      Trace.span ~phases:true "verify" (fun () ->
          List.iter
            (fun (r : Neurovec.Pipeline.result) ->
              Neurovec.Pipeline.verify_point ~options:verified p a
                ~psig:(Neurovec.Pipeline.decisions_sig r.Neurovec.Pipeline.decisions)
                ~modul:(lazy r.Neurovec.Pipeline.modul))
            [ base; rl ]);
      Serve.Protocol.Answer (Serve.Server.answer_text ~p ~decisions ~base ~rl)
    with e -> error_reply e
  in
  Trace.span "serve" (fun () ->
      let key = Serve.Server.store_key_of ~model_id ~options:verified p in
      let bytes = Serve.Protocol.encode_reply reply in
      Serve.Store.put store key bytes;
      (* the hit path: a store probe plus the request and reply codecs *)
      let t0 = now () in
      let stored = Option.get (Serve.Store.get store key) in
      let t1 = now () in
      let req = Serve.Protocol.encode_request (request p ~client:"replay") in
      ignore (Serve.Protocol.decode_request req);
      ignore (Serve.Protocol.decode_reply stored);
      let t2 = now () in
      Mutex.protect lock (fun () -> hit_costs := (t1 -. t0, t2 -. t1) :: !hit_costs);
      bytes)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let error_kind (reply : string) : string option =
  match Serve.Protocol.decode_reply reply with
  | Serve.Protocol.Error (k, _) ->
      Some
        (match k with
        | `Compile_error -> "compile"
        | `Hung -> "hung"
        | `Transient -> "transient"
        | `Miscompiled -> "miscompile"
        | `Overloaded | `Breaker_open | `Shutting_down -> "shed"
        | `Malformed | `Too_big | `Internal -> "internal")
  | _ -> None
  | exception Serve.Protocol.Malformed _ -> Some "internal"

let run (c : config) : result =
  let progs, seq = traffic c in
  let ckpt = path c "model.ckpt" in
  Rl.Checkpoint.save
    (Rl.Agent.create ~space:Rl.Spaces.Discrete (Nn.Rng.create agent_seed))
    ckpt;
  let agent = Rl.Checkpoint.load ckpt in
  (* three cold starts, the median reported; the last one takes the load *)
  let setups =
    Array.init 3 (fun i ->
        let dt = start c ~ckpt in
        if i < 2 then stop_daemon ();
        dt)
  in
  let samples, wall, broken = load c progs seq in
  let stats =
    let k = connect c in
    let r = call k Serve.Protocol.Stats_req in
    close k;
    match Serve.Protocol.decode_reply r with
    | Serve.Protocol.Stats_reply text -> text
    | _ -> ""
  in
  let rss = peak_rss_mb (string_of_int (Option.get !daemon)) in
  stop_daemon ();
  (* first-use order of the programs this run requested *)
  let seen = Hashtbl.create 256 in
  let distinct =
    Array.of_list
      (List.rev
         (Array.fold_left
            (fun acc s ->
              let p = seq.(s.idx) in
              if Hashtbl.mem seen p then acc
              else begin
                Hashtbl.replace seen p ();
                p :: acc
              end)
            [] samples))
  in
  let t0 = now () in
  let answers =
    Neurovec.Parpool.map (fun p -> expected agent progs.(p)) distinct
  in
  let untraced = now () -. t0 in
  let answer_of = Hashtbl.create 256 in
  Array.iteri (fun i p -> Hashtbl.replace answer_of p answers.(i)) distinct;
  let mismatched =
    Array.fold_left
      (fun n s -> if Hashtbl.find answer_of seq.(s.idx) = s.reply then n else n + 1)
      0 samples
  in
  let kinds = Array.map (fun s -> error_kind s.reply) samples in
  let errors = Array.fold_left (fun n k -> if k = None then n else n + 1) 0 kinds in
  let lat = Array.map (fun s -> s.t_done -. s.t_sent) samples in
  Printf.printf
    "serve: %d requests over %d programs (%.1f%% repeats), %d clients, jobs %d, \
     %d error replies, %d mismatched\n%!"
    (Array.length samples) (Array.length distinct)
    (100.0 *. (1.0 -. (float_of_int (Array.length distinct)
                       /. float_of_int (max 1 (Array.length samples)))))
    c.jobs c.jobs errors mismatched;
  let end_to_end =
    [ ("throughput_per_s", float_of_int (Array.length samples) /. wall);
      ("latency_p50_ms", 1e3 *. median lat);
      ("latency_p99_ms", 1e3 *. percentile lat 0.99);
      ("peak_rss_mb", rss);
      ("setup_s", median setups) ]
  in
  let failed = ref (max mismatched errors + broken) in
  let per_layer =
    if not c.traced then []
    else begin
      (* a request is a miss when its program's first reply had not
         arrived by the time it was sent *)
      let first_done = Hashtbl.create 256 in
      Array.iter
        (fun s ->
          let p = seq.(s.idx) in
          if not (Hashtbl.mem first_done p) then Hashtbl.replace first_done p s.t_done)
        samples;
      let is_hit s = s.t_sent >= Hashtbl.find first_done seq.(s.idx) in
      let hits = List.filter is_hit (Array.to_list samples) in
      let hit_lat = Array.of_list (List.map (fun s -> s.t_done -. s.t_sent) hits) in
      let miss_lat =
        Array.of_list
          (List.filter_map
             (fun s -> if is_hit s then None else Some (s.t_done -. s.t_sent))
             (Array.to_list samples))
      in
      Neurovec.Frontend.clear ();
      Neurovec.Stats.reset ();
      let store_path = path c "replay.store" in
      (try Sys.remove store_path with Sys_error _ -> ());
      let store = Serve.Store.open_store store_path in
      let model_id = Serve.Server.model_fingerprint agent in
      let hit_costs = ref [] and lock = Mutex.create () in
      Trace.enabled := true;
      let t0 = now () in
      let replayed =
        Trace.pool_map ~jobs:c.jobs "parpool"
          (fun f xs -> Neurovec.Parpool.map f xs)
          (fun p -> traced_expected agent store ~model_id ~hit_costs ~lock progs.(p))
          distinct
      in
      let traced_wall = now () -. t0 in
      Trace.enabled := false;
      Serve.Store.close store;
      if replayed <> answers then failed := Array.length samples;
      let get_s = Array.of_list (List.map fst !hit_costs) in
      let codec_s = Array.of_list (List.map snd !hit_costs) in
      let hit_cost = median get_s +. median codec_s in
      let n_hits = float_of_int (Array.length hit_lat) in
      let hit_residual = sum hit_lat -. (n_hits *. hit_cost) in
      (* request-seconds: every miss's latency holds its own serial
         compute, so layer busy times (not wall shares) are compared
         against the summed latency *)
      let busy, _ = Trace.self_times ~busy:true () in
      let busy =
        List.map
          (fun (l, s) -> if l = "serve" then (l, s +. (n_hits *. hit_cost)) else (l, s))
          (List.remove_assoc "parpool" busy)
      in
      let shares =
        attribution ~what:"summed client latency" ~wall:(sum lat)
          ~untraced:(sum lat) busy
      in
      Printf.printf
        "hit path: serve.hit_latency_p50_ms %.3f  store.get_us %.2f  \
         protocol.roundtrip_us %.2f  serve.hit_residual_ms %.3f (batch window + \
         queue wait, per hit)\n"
        (1e3 *. median hit_lat) (1e6 *. median get_s) (1e6 *. median codec_s)
        (1e3 *. hit_residual /. Float.max 1.0 n_hits);
      Printf.printf
        "miss path: serve.miss_latency_p99_ms %.3f  verify.verdict_ms_p50 %.3f  \
         verify.verdict_ms_p99 %.3f  infer.predict_ms_p50 %.3f  (%d misses)\n%!"
        (1e3 *. percentile miss_lat 0.99)
        (1e3 *. median (Trace.durations "verify"))
        (1e3 *. percentile (Trace.durations "verify") 0.99)
        (1e3 *. median (Trace.durations "infer"))
        (Array.length miss_lat);
      let verify_busy = Option.value ~default:0.0 (List.assoc_opt "verify" busy) in
      let vm_steps = (Ir_vm.stats ()).Ir_vm.vs_steps in
      let maps, eff, over = Trace.pool_stats "parpool" in
      let count k = float_of_int (Array.fold_left (fun n x -> if x = Some k then n + 1 else n) 0 kinds) in
      Trace.write (path c "trace-serve.jsonl");
      [ ("frontend.entries", float_of_int (Neurovec.Frontend.size ()));
        ("parpool.maps", float_of_int maps);
        ("parpool.efficiency", eff);
        ("parpool.map_overhead_us", 1e6 *. over);
        ("vm.steps_per_s", if verify_busy > 0.0 then float_of_int vm_steps /. verify_busy else 0.0);
        ("gc.top_heap_mb", gc_top_heap_mb ());
        ("errors.rate", float_of_int errors /. float_of_int (max 1 (Array.length samples)));
        ("errors.compile", count "compile"); ("errors.hung", count "hung");
        ("errors.transient", count "transient"); ("errors.miscompile", count "miscompile");
        ("errors.internal", count "internal"); ("errors.shed", count "shed");
        ("serve.hit_residual_pct",
         if sum hit_lat > 0.0 then 100.0 *. hit_residual /. sum hit_lat else 0.0);
        ("trace.overhead_pct", 100.0 *. (traced_wall -. untraced) /. untraced) ]
      @ shares @ counters_of_report stats
    end
  in
  { correct = !failed = 0; attempted = Array.length samples + broken;
    failed = !failed; end_to_end; per_layer }
