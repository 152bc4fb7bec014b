"""Block-level I/O trace model, statistics, transforms, synthetic
generators and chunked streams.  Every trace is generated from a seed."""
