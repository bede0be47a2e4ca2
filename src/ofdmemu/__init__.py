"""Digital OFDM transport that behaves like an analog link.

The package inverts a standard coded-OFDM transmit chain over GF(2) so
that arbitrary complex symbol targets come out of the air interface as
nearby constellation points, recovers soft estimates at the receiver,
learns a convolutional compensator for the residual deterministic
distortion, and trains image codecs end to end through a differentiable
surrogate of the whole link.
"""
