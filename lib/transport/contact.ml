(* Contact information for a process endpoint — the analogue of ECho's
   CMcontact_info. *)

type t = {
  host : string;
  port : int;
}

let make host port = { host; port }

let equal a b = a.host = b.host && a.port = b.port

let pp ppf t = Fmt.pf ppf "%s:%d" t.host t.port

let to_string t = Fmt.str "%a" pp t

let of_string s : (t, string) result =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "contact %S: expected host:port" s)
  | Some i ->
    let host = String.sub s 0 i in
    let port_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port_s with
     | Some port when port >= 0 -> Ok { host; port }
     | _ -> Error (Printf.sprintf "contact %S: bad port %S" s port_s))
