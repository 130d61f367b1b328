(** Nebby: congestion-control identification from bytes-in-flight traces.

    Public API of the core library. Typical use:
    {[
      let control = Nebby.Training.default () in
      let report = Nebby.Measurement.measure_cca ~control "cubic" in
      assert (report.label = "cubic")
    ]} *)

module Profile = Profile
module Testbed = Testbed
module Bif = Bif
module Pipeline = Pipeline
module Features = Features
module Plugin = Plugin
module Trace_sig = Trace_sig
module Loss_classifier = Loss_classifier
module Bbr_classifier = Bbr_classifier
module Akamai_classifier = Akamai_classifier
module Copa_classifier = Copa_classifier
module Vivace_classifier = Vivace_classifier
module Classifier = Classifier
module Training = Training
module Measurement = Measurement
module Chaos = Chaos
module Control_cache = Control_cache
