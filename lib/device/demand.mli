open Storage_units

(** Bandwidth and capacity demands placed on a device by one data protection
    technique (§3.2.3).

    Read and write bandwidth are tracked separately because some techniques
    (split-mirror resilvering, snapshot copy-on-write) consume both sides of
    the same enclosure, while utilization is assessed against the combined
    enclosure bandwidth. *)

type t = private {
  read_bw : Rate.t;
  write_bw : Rate.t;
  capacity : Size.t;
}

val zero : t
val make : ?read_bw:Rate.t -> ?write_bw:Rate.t -> ?capacity:Size.t -> unit -> t
val add : t -> t -> t

val total_bw : t -> Rate.t
(** [read_bw + write_bw]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val pp : t Fmt.t

(** A demand attributed to a named technique, for per-technique utilization
    and cost breakdowns (Table 5, Figure 5). *)
type labeled = { technique : string; demand : t }

val by_technique : labeled list -> (string * t) list
(** Groups labeled demands, summing duplicates, preserving first-appearance
    order. *)
