(** The benchmark's metric arithmetic: pure functions over per-query
    samples, kept apart from the workloads so the rules can be tested on
    their own. *)

type status =
  | Ok  (** answered within its budget (HTTP 200 when served) *)
  | Timed_out  (** tuple budget or deadline exhausted (HTTP 504 when served) *)
  | Errored of string  (** exception, transport failure or other non-200 *)

type sample = {
  latency : float;  (** seconds *)
  cost : float;  (** intermediate objects charged, Σ included *)
  status : status;
}

val median : float list -> float
(** Mean of the two middle order statistics for an even count.
    @raise Invalid_argument on the empty list. *)

type tail = { value : float; rank : float; samples : int }

val tail : float list -> tail option
(** The highest percentile with at least ten samples beyond it: over [n]
    samples, the [(n-10)]-th smallest, reported with its percentile rank
    [100 (n-10) / n]. [None] when [n <= 10], where no percentile has ten
    samples beyond it. *)

val failed : sample list -> int
(** Samples that timed out, errored or were answered with a non-200. *)

val failed_share : sample list -> float
(** [failed] over samples attempted; 0 for the empty list. *)

val objects_per_query : budget:float -> sample list -> float
(** Mean objects charged per query, where a timed-out query is charged the
    whole [budget] and an errored one, which charged nothing the caller
    could observe, is left out. [nan] when no sample is charged. *)
