(* Per-replica health for the read path: consecutive transport failures
   quarantine the replica; quarantine expiry doubles as the probe — the
   next read routed there either clears the slate or re-quarantines with
   a longer (jittered, capped) backoff. *)
type replica_state = {
  rhost : string;
  mutable rconn : Gdb.Client.t option;
  mutable fails : int;  (* consecutive transport failures *)
  mutable quarantined_until : int;  (* engine ms; 0 = healthy *)
  mutable quarantines : int;  (* drives the backoff exponent *)
}

type failover = {
  quarantine_after : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  backoff_jitter : float;
}

let default_failover =
  {
    quarantine_after = 3;
    backoff_base_ms = 2_000;
    backoff_max_ms = 60_000;
    backoff_jitter = 0.5;
  }

type t = {
  net : Netsim.Net.t;
  src : string;
  mutable conn : Gdb.Client.t option;
  mutable primary : string option;  (* dst of the last mr_connect *)
  mutable replicas : replica_state list;
  mutable rr : int;  (* round-robin cursor over replicas *)
  mutable hw : int;  (* high-water journal seq: read-your-writes floor *)
  mutable failover : failover;
  mutable rng : Sim.Rng.t option;  (* split lazily, for backoff jitter *)
  (* replayed onto every replica connection so ACL-checked reads see
     the same principal everywhere *)
  mutable auth : (Krb.Kdc.t * Krb.Kdc.credentials * string) option;
}

let create net ~src =
  {
    net;
    src;
    conn = None;
    primary = None;
    replicas = [];
    rr = 0;
    hw = 0;
    failover = default_failover;
    rng = None;
    auth = None;
  }

let counter t name = Obs.Counter.make (Netsim.Net.obs t.net) name
let now_ms t = Sim.Engine.clock (Netsim.Net.engine t.net) ()

let code_of_gdb_error = function
  | Gdb.Client.Net Netsim.Net.No_host -> Mr_err.cant_connect
  | Gdb.Client.Net Netsim.Net.No_service -> Mr_err.cant_connect
  | Gdb.Client.Net _ -> Mr_err.aborted
  | Gdb.Client.Protocol _ -> Mr_err.aborted
  | Gdb.Client.Rpc code ->
      if code = Gdb.Gdb_err.version_skew then Mr_err.version_skew
      else Mr_err.aborted

let mr_connect t ~dst =
  match t.conn with
  | Some c when Gdb.Client.is_connected c -> Mr_err.already_connected
  | _ -> (
      match
        Gdb.Client.connect t.net ~src:t.src ~dst
          ~service:Protocol.moira_service
      with
      | Ok c ->
          t.conn <- Some c;
          t.primary <- Some dst;
          0
      | Error e -> code_of_gdb_error e)

let with_conn t f =
  match t.conn with
  | Some c when Gdb.Client.is_connected c -> f c
  | _ -> Mr_err.not_connected

let mr_disconnect t =
  List.iter
    (fun rs ->
      match rs.rconn with
      | Some c ->
          ignore (Gdb.Client.disconnect c);
          rs.rconn <- None
      | None -> ())
    t.replicas;
  match t.conn with
  | Some c when Gdb.Client.is_connected c ->
      ignore (Gdb.Client.disconnect c);
      t.conn <- None;
      0
  | _ -> Mr_err.not_connected

let mr_noop t =
  with_conn t (fun c ->
      match Gdb.Client.call c ~op:Protocol.op_noop [] with
      | Ok (code, _) -> code
      | Error e -> code_of_gdb_error e)

let mr_auth_creds t ~kdc ~creds ~clientname =
  with_conn t (fun c ->
      let authenticator = Krb.Kdc.mk_req kdc creds in
      match
        Gdb.Client.call c ~op:Protocol.op_auth [ authenticator; clientname ]
      with
      | Ok (0, _) ->
          t.auth <- Some (kdc, creds, clientname);
          0
      | Ok (code, _) -> code
      | Error e -> code_of_gdb_error e)

let mr_auth t ~kdc ~principal ~password ~clientname =
  with_conn t (fun _ ->
      match
        Krb.Kdc.get_ticket kdc ~principal ~password
          ~service:Protocol.moira_service
      with
      | Error code -> code
      | Ok creds -> mr_auth_creds t ~kdc ~creds ~clientname)

let mr_access t ~name args =
  with_conn t (fun c ->
      match Gdb.Client.call c ~op:Protocol.op_access (name :: args) with
      | Ok (code, _) -> code
      | Error e -> code_of_gdb_error e)

(* ---------------- replica read path ---------------- *)

let set_replicas ?failover t hosts =
  (match failover with Some f -> t.failover <- f | None -> ());
  if hosts <> [] && t.rng = None then
    t.rng <- Some (Sim.Rng.split (Sim.Engine.rng (Netsim.Net.engine t.net)));
  List.iter
    (fun rs ->
      match rs.rconn with
      | Some c -> ignore (Gdb.Client.disconnect c)
      | None -> ())
    t.replicas;
  t.replicas <-
    List.map
      (fun rhost ->
        {
          rhost;
          rconn = None;
          fails = 0;
          quarantined_until = 0;
          quarantines = 0;
        })
      hosts

let high_water t = t.hw

let replica_status t =
  let now = now_ms t in
  List.map
    (fun rs -> (rs.rhost, rs.quarantined_until > now))
    t.replicas

(* Retrieval handles follow the naming grammar of the catalogue; names
   this misses are merely routed to the primary (a performance loss,
   never a correctness one — the replica would bounce a mutation with
   [read_only_replica] anyway). *)
let is_read_name name =
  let has p = String.starts_with ~prefix:p name in
  has "get_" || has "_get_" || has "qualified_get_" || has "count_"
  || has "expand_" || has "_list_"

let healthy t rs = rs.quarantined_until <= now_ms t

let record_ok t rs =
  if rs.quarantined_until > 0 then
    Obs.Counter.incr (counter t "client.replica_recovered");
  rs.fails <- 0;
  rs.quarantines <- 0;
  rs.quarantined_until <- 0

let record_failure t rs =
  (match rs.rconn with
  | Some c -> ignore (Gdb.Client.disconnect c)
  | None -> ());
  rs.rconn <- None;
  rs.fails <- rs.fails + 1;
  if rs.fails >= t.failover.quarantine_after then begin
    rs.fails <- 0;
    rs.quarantines <- rs.quarantines + 1;
    let backoff =
      min t.failover.backoff_max_ms
        (t.failover.backoff_base_ms * (1 lsl min 16 (rs.quarantines - 1)))
    in
    let backoff =
      match t.rng with
      | Some rng -> Sim.Rng.jitter rng ~frac:t.failover.backoff_jitter backoff
      | None -> backoff
    in
    rs.quarantined_until <- now_ms t + max 1 backoff;
    Obs.Counter.incr (counter t "client.replica_quarantined")
  end

let replica_conn t rs =
  match rs.rconn with
  | Some c when Gdb.Client.is_connected c -> Some c
  | _ -> (
      match
        Gdb.Client.connect t.net ~src:t.src ~dst:rs.rhost
          ~service:Protocol.moira_service
      with
      | Error _ -> None
      | Ok c -> (
          match t.auth with
          | None ->
              rs.rconn <- Some c;
              Some c
          | Some (kdc, creds, clientname) -> (
              let authenticator = Krb.Kdc.mk_req kdc creds in
              match
                Gdb.Client.call c ~op:Protocol.op_auth
                  [ authenticator; clientname ]
              with
              | Ok (0, _) ->
                  rs.rconn <- Some c;
                  Some c
              | Ok _ | Error _ ->
                  ignore (Gdb.Client.disconnect c);
                  None)))

(* The trace context outbound requests carry: the innermost span open
   on the net's registry (the [client.query] span [mr_query] opens, or
   whatever workload span encloses it). *)
let wire_ctx t =
  Option.map Obs.ctx_to_string (Obs.current_ctx (Netsim.Net.obs t.net))

(* One sequenced query against one connection.  [`Done] is a server
   verdict (authoritative: the query ran, or was refused, at a server
   caught up to our high-water mark); [`Stale] and [`Transport] both
   mean "ask someone else", but only the latter indicts the server. *)
let call_query2 t c ~name args ~callback =
  match
    Gdb.Client.call c ?ctx:(wire_ctx t) ~op:Protocol.op_query2
      (string_of_int t.hw :: name :: args)
  with
  | Ok (0, seq_row :: tuples) ->
      (match seq_row with
      | [ s ] -> (
          match int_of_string_opt s with
          | Some s when s > t.hw -> t.hw <- s
          | _ -> ())
      | _ -> ());
      List.iter callback tuples;
      `Done 0
  | Ok (0, []) -> `Done 0
  | Ok (code, _) when code = Mr_err.replica_stale -> `Stale
  | Ok (code, _) -> `Done code
  | Error e -> `Transport (code_of_gdb_error e)

(* Reconnect the primary connection in place (post-crash recovery) and
   re-present credentials; returns the fresh connection if both work. *)
let reconnect_primary t =
  match t.primary with
  | None -> None
  | Some dst -> (
      (match t.conn with
      | Some c -> ignore (Gdb.Client.disconnect c)
      | None -> ());
      t.conn <- None;
      match
        Gdb.Client.connect t.net ~src:t.src ~dst
          ~service:Protocol.moira_service
      with
      | Error _ -> None
      | Ok c -> (
          t.conn <- Some c;
          match t.auth with
          | None -> Some c
          | Some (kdc, creds, clientname) -> (
              let authenticator = Krb.Kdc.mk_req kdc creds in
              match
                Gdb.Client.call c ~op:Protocol.op_auth
                  [ authenticator; clientname ]
              with
              | Ok (0, _) -> Some c
              | Ok _ | Error _ -> None)))

(* QUERY2 on the primary, sequenced so the reply teaches the client its
   new high-water mark (read-your-writes).  A transport failure gets one
   in-place reconnect and one retry: the primary may have rebooted since
   the connection was opened. *)
let query_primary t ~name args ~callback =
  let code_of = function
    | `Done code | `Transport code -> code
    | `Stale -> Mr_err.replica_stale (* the primary is never stale *)
  in
  let retry code =
    match reconnect_primary t with
    | None -> code
    | Some c -> code_of (call_query2 t c ~name args ~callback)
  in
  match t.conn with
  | Some c when Gdb.Client.is_connected c -> (
      match call_query2 t c ~name args ~callback with
      | `Transport code -> retry code
      | r -> code_of r)
  | _ -> retry Mr_err.not_connected

(* Reads fan out over healthy replicas round-robin; a stale replica is
   skipped without prejudice, a faulty one is charged a failure.  The
   primary is the backstop when every replica is quarantined, stale, or
   unreachable. *)
let query_via_replicas t ~name args ~callback =
  let n = List.length t.replicas in
  let order =
    let arr = Array.of_list t.replicas in
    let start = if n = 0 then 0 else t.rr mod n in
    t.rr <- t.rr + 1;
    List.init n (fun i -> arr.((start + i) mod n))
  in
  let rec go = function
    | [] ->
        Obs.Counter.incr (counter t "client.read.primary");
        query_primary t ~name args ~callback
    | rs :: rest when not (healthy t rs) -> go rest
    | rs :: rest -> (
        match replica_conn t rs with
        | None ->
            record_failure t rs;
            go rest
        | Some c -> (
            match call_query2 t c ~name args ~callback with
            | `Done code ->
                record_ok t rs;
                Obs.Counter.incr (counter t "client.read.replica");
                code
            | `Stale ->
                record_ok t rs;
                Obs.Counter.incr (counter t "client.read.stale_bounce");
                go rest
            | `Transport _ ->
                record_failure t rs;
                go rest))
  in
  go order

let mr_query t ~name args ~callback =
  (* Client-observed round-trip latency, in engine ms: unlike the
     server-side handler time this includes RPC transfer cost, so it is
     the number an application would actually wait. *)
  let obs = Netsim.Net.obs t.net in
  let clock = Sim.Engine.clock (Netsim.Net.engine t.net) in
  (* the root of a write's end-to-end trace: the server's handler span,
     the commit's replica applies and the DCM install all descend from
     this span via the wire context *)
  let sp = Obs.span_begin obs "client.query" ~attrs:[ ("name", name) ] in
  let t0 = clock () in
  let code =
    if t.replicas = [] then
      with_conn t (fun c ->
          match
            Gdb.Client.call c ?ctx:(wire_ctx t) ~op:Protocol.op_query
              (name :: args)
          with
          | Ok (0, tuples) ->
              List.iter callback tuples;
              0
          | Ok (code, _) -> code
          | Error e -> code_of_gdb_error e)
    else if is_read_name name then query_via_replicas t ~name args ~callback
    else query_primary t ~name args ~callback
  in
  let dur = clock () - t0 in
  Obs.Histogram.observe (Obs.Histogram.make obs "client.query_ms") dur;
  Obs.Histogram.observe
    (Obs.Histogram.make obs ("client.query." ^ name ^ ".ms"))
    dur;
  Obs.span_end obs sp ~attrs:[ ("code", string_of_int code) ];
  code

let mr_query_list t ~name args =
  let acc = ref [] in
  match mr_query t ~name args ~callback:(fun tu -> acc := tu :: !acc) with
  | 0 -> Ok (List.rev !acc)
  | code -> Error code

let is_connected t =
  match t.conn with Some c -> Gdb.Client.is_connected c | None -> false
