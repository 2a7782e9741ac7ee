(** Message formats for the business-process-messaging scenario (paper,
    Section 4.2, Figures 6 and 7): a retailer and a supplier exchange
    orders and order statuses through a broker, each speaking its own
    vendor format.  Both the Ecode transformations (morphing mode) and the
    equivalent XSLT stylesheets (Oracle-AQ-style broker mode) live here. *)

open Pbio

(** {1 Retailer-side formats} *)

val retail_order : Ptype.record
val retail_status : Ptype.record

(** {1 Supplier-side formats} *)

val supplier_order : Ptype.record
val supplier_status : Ptype.record

(** {1 Ecode transformations (morphing mode)} *)

val retail_to_supplier_order_code : string
val supplier_to_retail_status_code : string

(** Meta blocks the morphing broker attaches before forwarding. *)
val order_with_xform : Meta.format_meta

val status_with_xform : Meta.format_meta

(** {1 XSLT stylesheets (broker-conversion mode)} *)

val retail_to_supplier_order_xslt : string
val supplier_to_retail_status_xslt : string

(** {1 Value builders and workload} *)

val supplier_status_value : po:int -> state:string -> eta_days:int -> Value.t

(** Deterministic order stream. *)
val gen_order : int -> Value.t

val gen_status_for : po:int -> int -> Value.t
