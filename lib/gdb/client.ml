type error =
  | Net of Netsim.Net.failure
  | Protocol of string
  | Rpc of int

let error_to_string = function
  | Net f -> Netsim.Net.failure_to_string f
  | Protocol s -> Printf.sprintf "protocol error: %s" s
  | Rpc code -> Comerr.Com_err.error_message code

type t = {
  net : Netsim.Net.t;
  src : string;
  dst : string;
  service : string;
  mutable conn : int;
  mutable connected : bool;
}

let raw_call t ?(ctx = "") ~op args =
  let payload =
    Wire.encode_request
      { Wire.version = Wire.protocol_version; conn = t.conn; op; args; ctx }
  in
  match
    Netsim.Net.call t.net ~src:t.src ~dst:t.dst ~service:t.service payload
  with
  | Error f ->
      t.connected <- false;
      Error (Net f)
  | Ok raw -> (
      match Wire.decode_reply raw with
      | Error e ->
          t.connected <- false;
          Error (Protocol e)
      | Ok reply -> Ok reply)

let connect net ~src ~dst ~service =
  let t = { net; src; dst; service; conn = 0; connected = false } in
  match raw_call t ~op:Wire.op_open [] with
  | Error e -> Error e
  | Ok reply ->
      if reply.Wire.code <> 0 then Error (Rpc reply.Wire.code)
      else begin
        match reply.Wire.tuples with
        | [ [ id ] ] -> (
            match int_of_string_opt id with
            | Some conn ->
                t.conn <- conn;
                t.connected <- true;
                Ok t
            | None -> Error (Protocol "bad connection id"))
        | _ -> Error (Protocol "bad open reply")
      end

let call t ?ctx ~op args =
  if not t.connected then Error (Net Netsim.Net.Host_down)
  else
    match raw_call t ?ctx ~op args with
    | Error _ as e -> e
    | Ok reply ->
        if
          reply.Wire.code = Gdb_err.bad_frame
          || reply.Wire.code = Gdb_err.version_skew
          || reply.Wire.code = Gdb_err.no_connection
        then Error (Rpc reply.Wire.code)
        else Ok (reply.Wire.code, reply.Wire.tuples)

let disconnect t =
  if not t.connected then Ok ()
  else begin
    let r = raw_call t ~op:Wire.op_close [] in
    t.connected <- false;
    match r with Ok _ -> Ok () | Error e -> Error e
  end

let is_connected t = t.connected
