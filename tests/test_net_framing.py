"""The length-prefixed JSON frame codec shared by the DB, sync and
middleware protocols."""

from hypothesis import given, settings, strategies as st

from repro.net.framing import FrameReader, encode_frame

_scalars = (st.text(max_size=20) | st.integers()
            | st.floats(allow_nan=False) | st.binary(max_size=40))
_values = _scalars | st.lists(_scalars, max_size=5)
# "__b64__" is the codec's own marker key, never a message field.
_keys = st.text(max_size=10).filter(lambda key: key != "__b64__")
_frames = st.lists(st.dictionaries(_keys, _values, max_size=6), max_size=6)


@settings(max_examples=200, deadline=None)
@given(frames=_frames, data=st.data())
def test_frames_survive_any_split_of_the_stream(frames, data):
    stream = b"".join(encode_frame(frame) for frame in frames)
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)), max_size=8)))
    reader = FrameReader()
    decoded = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        decoded.extend(reader.feed(stream[start:end]))
    assert decoded == frames
    for got, sent in zip(decoded, frames):
        assert list(got) == list(sent)  # key order survives too
