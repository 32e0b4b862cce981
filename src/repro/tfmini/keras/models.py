"""Keras-like models with explicit compute cost models.

Only two things about a model matter to the reproduction: how many bytes its
variables occupy (checkpoint size, Fig. 6) and how long one training step
keeps the GPU busy (the compute side of the input-bound analysis).  The two
models of the paper are provided: AlexNet for ImageNet classification and a
small two-layer CNN for the malware detection case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.sim import Environment
from repro.tfmini.data.dataset import Batch, DatasetIterator, OutOfRangeError
from repro.tfmini.device import GPUDevice
from repro.tfmini.profiler.analysis import StepStats


@dataclass(frozen=True)
class Variable:
    """A trainable variable: name, shape and element size."""

    name: str
    shape: Tuple[int, ...]
    dtype_size: int = 4

    @property
    def num_elements(self) -> int:
        n = 1
        for dim in self.shape:
            n *= int(dim)
        return n

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype_size


@dataclass
class TrainingConfig:
    """Optimizer settings (the paper uses plain SGD for both use cases)."""

    optimizer: str = "sgd"
    learning_rate: float = 0.01
    momentum: float = 0.0
    loss: str = "categorical_crossentropy"


class Model:
    """Base class: variables + a per-step GPU cost model + the fit loop."""

    #: Seconds of GPU time per sample (subclasses override).
    per_sample_gpu_time: float = 1e-4
    #: Relative durations of the kernels that make up one step.
    kernel_profile: Sequence[Tuple[str, float]] = (("forward", 0.6),
                                                   ("backward", 0.4))
    #: Host-side work per step (optimizer bookkeeping, kernel launches).
    host_step_overhead: float = 1.5e-3
    #: Bandwidth of the gradient all-reduce between GPUs (NCCL over PCIe).
    allreduce_bandwidth: float = 20e9

    def __init__(self, name: str, variables: Sequence[Variable],
                 config: Optional[TrainingConfig] = None):
        self.name = name
        self.variables: List[Variable] = list(variables)
        self.config = config or TrainingConfig()
        self.compiled = False

    # -- introspection -------------------------------------------------------
    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return sum(v.num_elements for v in self.variables)

    def variables_nbytes(self) -> int:
        """Bytes occupied by all variables (the checkpoint payload size)."""
        return sum(v.nbytes for v in self.variables)

    def compile(self, optimizer: str = "sgd", learning_rate: float = 0.01,
                momentum: float = 0.0,
                loss: str = "categorical_crossentropy") -> None:
        """Record the training configuration (mirrors ``model.compile``)."""
        self.config = TrainingConfig(optimizer=optimizer,
                                     learning_rate=learning_rate,
                                     momentum=momentum, loss=loss)
        self.compiled = True

    # -- compute cost model ------------------------------------------------------
    def step_kernels(self, per_gpu_batch: int) -> List[Tuple[str, float]]:
        """(kernel name, duration) pairs of one training step on one GPU."""
        total = self.per_sample_gpu_time * max(1, per_gpu_batch)
        weight_sum = sum(w for _, w in self.kernel_profile)
        return [(f"{self.name}/{kernel}", total * weight / weight_sum)
                for kernel, weight in self.kernel_profile]

    def _train_step(self, runtime, batch: Batch) -> Generator:
        """Execute one optimization step on the runtime's GPUs."""
        env: Environment = runtime.env
        gpus: List[GPUDevice] = runtime.gpus
        start = env.now
        if self.host_step_overhead > 0:
            yield env.timeout(self.host_step_overhead)
        if gpus:
            per_gpu = max(1, int(math.ceil(batch.size / len(gpus))))
            replicas = []
            for gpu in gpus:
                replicas.append(env.process(
                    self._run_replica(gpu, per_gpu)))
            yield env.all_of(replicas)
            if len(gpus) > 1:
                # Ring all-reduce of the gradients: 2(N-1)/N of the payload.
                payload = self.variables_nbytes() * 2 * (len(gpus) - 1) / len(gpus)
                yield env.timeout(payload / self.allreduce_bandwidth)
        else:
            # CPU-only training: charge the work to the CPU pool.
            yield runtime.cpu.compute(self.per_sample_gpu_time * batch.size * 4)
        runtime.traceme.record("train_step", start, env.now, thread="host",
                               batch_size=batch.size)

    def _run_replica(self, gpu: GPUDevice, per_gpu_batch: int) -> Generator:
        for kernel, duration in self.step_kernels(per_gpu_batch):
            yield from gpu.launch(kernel, duration)

    # -- training loop -------------------------------------------------------------
    def fit(self, runtime, dataset, steps_per_epoch: int, epochs: int = 1,
            callbacks: Sequence = ()) -> Generator:
        """Run the Keras-style training loop; returns a :class:`History`.

        This is a simulation generator: drive it with ``env.process``.
        """
        from repro.tfmini.keras.callbacks import CallbackList, History

        callback_list = CallbackList(callbacks, model=self, runtime=runtime)
        history = History()
        callback_list.append(history)

        yield from callback_list.on_train_begin()
        iterator: DatasetIterator = dataset.make_iterator(runtime)
        global_step = 0
        for epoch in range(epochs):
            yield from callback_list.on_epoch_begin(epoch)
            epoch_start = runtime.env.now
            steps_done = 0
            for step in range(steps_per_epoch):
                yield from callback_list.on_train_batch_begin(global_step)
                step_start = runtime.env.now
                try:
                    batch = yield from iterator.get_next()
                except OutOfRangeError:
                    break
                input_time = runtime.env.now - step_start
                compute_start = runtime.env.now
                yield from self._train_step(runtime, batch)
                compute_time = runtime.env.now - compute_start
                step_end = runtime.env.now
                stats = StepStats(step=global_step, start=step_start,
                                  end=step_end, input_time=input_time,
                                  compute_time=compute_time)
                runtime.record_step(stats)
                logs = {
                    "step": global_step,
                    "batch_size": batch.size,
                    "input_time": input_time,
                    "compute_time": compute_time,
                    "loss": self._synthetic_loss(global_step),
                }
                yield from callback_list.on_train_batch_end(global_step, logs)
                global_step += 1
                steps_done += 1
            epoch_logs = {
                "epoch": epoch,
                "steps": steps_done,
                "epoch_time": runtime.env.now - epoch_start,
                "loss": self._synthetic_loss(global_step),
            }
            yield from callback_list.on_epoch_end(epoch, epoch_logs)
        yield from callback_list.on_train_end()
        iterator.cancel()
        return history

    def _synthetic_loss(self, step: int) -> float:
        """A smooth, decreasing stand-in for the training loss."""
        return float(2.5 * math.exp(-step / 250.0) + 0.3)


# ---------------------------------------------------------------------------
# The two models used in the paper's case studies
# ---------------------------------------------------------------------------

def _alexnet_variables() -> List[Variable]:
    """Standard AlexNet layer shapes for ImageNet's 1000 classes (~61 M
    parameters)."""
    return [
        Variable("conv1/kernel", (11, 11, 3, 96)),
        Variable("conv1/bias", (96,)),
        Variable("conv2/kernel", (5, 5, 96, 256)),
        Variable("conv2/bias", (256,)),
        Variable("conv3/kernel", (3, 3, 256, 384)),
        Variable("conv3/bias", (384,)),
        Variable("conv4/kernel", (3, 3, 384, 384)),
        Variable("conv4/bias", (384,)),
        Variable("conv5/kernel", (3, 3, 384, 256)),
        Variable("conv5/bias", (256,)),
        Variable("fc6/kernel", (9216, 4096)),
        Variable("fc6/bias", (4096,)),
        Variable("fc7/kernel", (4096, 4096)),
        Variable("fc7/bias", (4096,)),
        Variable("fc8/kernel", (4096, 1000)),
        Variable("fc8/bias", (1000,)),
    ]


class AlexNet(Model):
    """AlexNet trained on ImageNet (the paper's image classification case)."""

    per_sample_gpu_time = 0.45e-3
    kernel_profile = (
        ("conv_forward", 0.22),
        ("fc_forward", 0.13),
        ("loss", 0.05),
        ("fc_backward", 0.2),
        ("conv_backward", 0.3),
        ("apply_gradients", 0.1),
    )

    def __init__(self):
        super().__init__("alexnet", _alexnet_variables())


def _malware_cnn_variables() -> List[Variable]:
    """A small two-layer CNN over 256x256 grayscale bytecode images, for
    BIG-2015's nine malware families."""
    flat = (256 // 4) * (256 // 4) * 32
    return [
        Variable("conv1/kernel", (3, 3, 1, 16)),
        Variable("conv1/bias", (16,)),
        Variable("conv2/kernel", (3, 3, 16, 32)),
        Variable("conv2/bias", (32,)),
        Variable("dense/kernel", (flat, 64)),
        Variable("dense/bias", (64,)),
        Variable("logits/kernel", (64, 9)),
        Variable("logits/bias", (9,)),
    ]


class MalwareCNN(Model):
    """Two-layer CNN for the Kaggle BIG-2015 malware classification case."""

    per_sample_gpu_time = 0.16e-3
    kernel_profile = (
        ("conv_forward", 0.3),
        ("dense_forward", 0.15),
        ("loss", 0.05),
        ("dense_backward", 0.15),
        ("conv_backward", 0.25),
        ("apply_gradients", 0.1),
    )

    def __init__(self):
        super().__init__("malware_cnn", _malware_cnn_variables())
