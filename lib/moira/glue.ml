type t = {
  mdb : Mdb.t;
  registry : Query.registry;
  client : string;
}

let create ?(client = "dcm") ~mdb ~registry () = { mdb; registry; client }

let ctx t =
  { Query.mdb = t.mdb; caller = ""; client = t.client; privileged = true;
    trace = "" }

let query t ~name args = Query.execute t.registry (ctx t) ~name args

let mdb t = t.mdb
