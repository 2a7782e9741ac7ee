(** A small textual DSL for format declarations, mirroring the paper's
    Figure 2 IOField tables.  Used by the CLI, the examples and the tests.

    {[
      enum mode { optional = 0, required = 1 }
      record Member { string info; int id; bool is_source; bool is_sink; }
      format ChannelOpenResponse {
        int member_count;
        Member member_list[member_count];
        mode m = optional;
        float qos = 1.5;
      }
    ]}

    [record] declares a reusable complex type; [format] additionally marks
    a top-level (base) format.  Array sizes are an integer literal (fixed)
    or the name of a preceding integer field (variable).  Defaults follow
    [=].  Line ([//]) and block comments are supported. *)

type decl =
  | Denum of Ptype.enum
  | Drecord of Ptype.record
  | Dformat of Ptype.record

exception Parse_error of string

(** The declared base formats, by name. *)
val parse_formats : string -> ((string * Ptype.record) list, string) result

(** Parse a source expected to declare exactly one [format].  Raises
    {!Parse_error}. *)
val format_of_string_exn : string -> Ptype.record
