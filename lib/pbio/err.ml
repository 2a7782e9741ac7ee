type t =
  [ `Decode of string
  | `Encode of string
  | `Frame of string
  | `Meta of string
  | `Type of string
  | `Xform of string
  | `No_match of string
  | `Config of string
  | `Internal of string ]

let tag : t -> string = function
  | `Decode _ -> "decode"
  | `Encode _ -> "encode"
  | `Frame _ -> "frame"
  | `Meta _ -> "meta"
  | `Type _ -> "type"
  | `Xform _ -> "xform"
  | `No_match _ -> "no_match"
  | `Config _ -> "config"
  | `Internal _ -> "internal"

let message : t -> string = function
  | `Decode m | `Encode m | `Frame m | `Meta m | `Type m | `Xform m
  | `No_match m | `Config m | `Internal m ->
    m

let to_string e = tag e ^ ": " ^ message e
let pp ppf e = Format.pp_print_string ppf (to_string e)
