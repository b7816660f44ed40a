type backend_cost =
  | Per_server of int
  | Per_connection of int

type 'st conn_info = {
  conn_id : int;
  peer : string;
  connect_time : int;
  state : 'st;
}

type 'st t = {
  net : Netsim.Net.t;
  conns : (int, 'st conn_info) Hashtbl.t;
  mutable next_conn : int;
  mutable served : int;
  max_connections : int;
  backend : backend_cost;
  init : peer:string -> 'st;
  handler : 'st conn_info -> Wire.request -> int * string list list;
}

let reply code tuples =
  Wire.encode_reply
    { Wire.rversion = Wire.protocol_version; code; tuples }

let handle t ~src payload =
  match Wire.decode_request payload with
  | Error _ -> reply Gdb_err.bad_frame []
  | Ok req ->
      if req.Wire.version <> Wire.protocol_version then
        reply Gdb_err.version_skew []
      else if req.Wire.op = Wire.op_open then begin
        if Hashtbl.length t.conns >= t.max_connections then
          reply Gdb_err.too_many_connections []
        else begin
          (match t.backend with
          | Per_connection ms -> Sim.Engine.advance (Netsim.Net.engine t.net) ms
          | Per_server _ -> ());
          let conn_id = t.next_conn in
          t.next_conn <- conn_id + 1;
          let info =
            {
              conn_id;
              peer = src;
              connect_time = Sim.Engine.now (Netsim.Net.engine t.net);
              state = t.init ~peer:src;
            }
          in
          Hashtbl.replace t.conns conn_id info;
          reply 0 [ [ string_of_int conn_id ] ]
        end
      end
      else if req.Wire.op = Wire.op_close then begin
        Hashtbl.remove t.conns req.Wire.conn;
        reply 0 []
      end
      else begin
        match Hashtbl.find_opt t.conns req.Wire.conn with
        | None -> reply Gdb_err.no_connection []
        | Some info ->
            t.served <- t.served + 1;
            let code, tuples = t.handler info req in
            reply code tuples
      end

let create ?(max_connections = 64) ?(backend = Per_server 0) ~net ~host
    ~service ~init ~handler () =
  let t =
    {
      net;
      conns = Hashtbl.create 32;
      next_conn = 1;
      served = 0;
      max_connections;
      backend;
      init;
      handler;
    }
  in
  (match backend with
  | Per_server ms -> Sim.Engine.advance (Netsim.Net.engine net) ms
  | Per_connection _ -> ());
  Netsim.Host.register host ~service (fun ~src payload ->
      handle t ~src payload);
  t

let connections t =
  Hashtbl.fold (fun _ info acc -> info :: acc) t.conns []
  |> List.sort (fun a b -> Int.compare a.conn_id b.conn_id)

let connection_count t = Hashtbl.length t.conns
let requests_served t = t.served
